(* The traced run of the serve workloads.  It replays the same seeded
   open-loop stream as the end-to-end run, one request at a time, in
   this process, so every count it makes depends on the seed alone.

   Phase A drives a real Server over its Unix socket (Server.step and
   the blocking client on one thread): dispatch time comes from the
   server's own server.request_ns histogram, transport is the client's
   round trip minus that dispatch time, and the WAL, snapshot, probe
   and migration counters come from the layers.  It ends with a crash
   (no clean close) and a timed Durable.recover.

   Phase B calls the layers directly, each call in a span: the JSON
   codec, Parser.parse_query, the engine's submit/flush/withdraw,
   Database.insert, and the WAL sink the benchmark wraps around the
   engine's journal.  It runs five times, each on fresh state: a
   warm-up, then untraced and traced in turn; traced over untraced time
   is bench.trace_overhead. *)

open Relational
module J = Server.Json
module Online = Coordination.Online
module Sharded = Coordination.Online_sharded
module Stats = Coordination.Stats

type eng = Seq of Online.t | Shard of Sharded.t

let snap s =
  let c = Stats.create () in
  Stats.merge ~into:c s;
  c

let eng_stats = function Seq e -> snap (Online.stats e) | Shard e -> Sharded.stats e
let eng_pending = function Seq e -> Online.pending_count e | Shard e -> Sharded.pending_count e

let diff a b =
  let d = snap b in
  d.Stats.db_probes <- b.Stats.db_probes - a.Stats.db_probes;
  d.ground_ns <- Int64.sub b.ground_ns a.ground_ns;
  d.graph_ns <- Int64.sub b.graph_ns a.graph_ns;
  d.unify_ns <- Int64.sub b.unify_ns a.unify_ns;
  d.candidates <- b.candidates - a.candidates;
  d.cleaning_rounds <- b.cleaning_rounds - a.cleaning_rounds;
  d.plan_hits <- b.plan_hits - a.plan_hits;
  d.plan_misses <- b.plan_misses - a.plan_misses;
  d.tuples_scanned <- b.tuples_scanned - a.tuples_scanned;
  d

(* serve-market's seat ledger.  The replay counts the seats it stocked
   and the pairs that fired; the double-spent and missing seats are the
   engine's own reports (Online.last_inventory_conflict), read once per
   fired set: the journal sink sees each set's Retired record after the
   previous set's consume pass, and Op_end after the last one.  A
   conflict the engine has not replaced is physically the same value,
   so none is counted twice. *)
type seats = {
  stocked : int array;
  fired : int array;
  double_spent : int array;
  missing : int array;
  pair_event : (int, int) Hashtbl.t;
  mutable seen : Online.inventory_conflict option;
}

let new_seats () =
  let per_event () = Array.make Sched.events 0 in
  {
    stocked = per_event ();
    fired = per_event ();
    double_spent = per_event ();
    missing = per_event ();
    pair_event = Hashtbl.create 1024;
    seen = None;
  }

let event_of_seat (t : Tuple.t) =
  match t.(1) with
  | Value.Str s when String.length s > 1 -> int_of_string_opt (String.sub s 1 (String.length s - 1))
  | _ -> None

let bump counts = function Some e when e >= 0 && e < Sched.events -> counts.(e) <- counts.(e) + 1 | _ -> ()

let note_conflict seats engine =
  let c = Online.last_inventory_conflict engine in
  if c != seats.seen then begin
    seats.seen <- c;
    Option.iter
      (fun (c : Online.inventory_conflict) ->
        List.iter (fun (_, t) -> bump seats.double_spent (event_of_seat t)) c.double_spent;
        List.iter (fun (_, t) -> bump seats.missing (event_of_seat t)) c.missing)
      c
  end

let note_stream seats (evs : Sched.ev list) =
  List.iter
    (fun (e : Sched.ev) ->
      match e.req with Sched.Submit { pair; event; _ } -> Hashtbl.replace seats.pair_event pair event | _ -> ())
    evs

let note_insert seats = function Sched.Insert { event; _ } -> bump seats.stocked (Some event) | _ -> ()

let note_fired seats names =
  bump seats.fired (Option.bind (Sched.pair_of_set names) (Hashtbl.find_opt seats.pair_event))

let conflicts seats = Array.fold_left ( + ) 0 seats.double_spent + Array.fold_left ( + ) 0 seats.missing

(* Per event: stocked - (2 * fired - double_spent - missing) = remaining.
   A fired pair demands one seat per member; a double-spent seat is
   deleted once for two demands, a missing one not at all. *)
let check_seats o ~phase seats db =
  match Database.relation_opt db "Seats" with
  | None -> Report.check o false (phase ^ ": no Seats table")
  | Some r ->
    for e = 0 to Sched.events - 1 do
      let remaining = Relation.count_matching r ~col:1 (Value.str (Printf.sprintf "e%d" e)) in
      let booked = (2 * seats.fired.(e)) - seats.double_spent.(e) - seats.missing.(e) in
      Report.check o
        (seats.stocked.(e) - booked = remaining)
        (Printf.sprintf "%s: event e%d: stocked %d, %d pairs fired, %d double-spent, %d missing, remaining %d"
           phase e seats.stocked.(e) seats.fired.(e) seats.double_spent.(e) seats.missing.(e) remaining)
    done

(* A durable engine built the way `entangle serve` builds it for the
   workload's flags, with the WAL sink wrapped in a durable.append
   span. *)
let open_engine ~market dir =
  Util.rm_rf dir;
  let srv = Sched.server ~market in
  let cfg = Durable.config ~fsync:srv.fsync dir in
  match Durable.open_or_recover ~consume:srv.consume ~backend:srv.backend cfg with
  | Error why -> failwith why
  | Ok (d, db, engine, _) ->
    let wal = Durable.journal_sink d in
    let timed record = Span.with_span "durable.append" (fun () -> wal record) in
    let seats = new_seats () in
    let eng =
      if srv.domains = 1 then begin
        Online.set_journal engine
          (Some
             (fun record ->
               (match record with
               | Online.Journal.Retired _ | Online.Journal.Op_end _ -> note_conflict seats engine
               | _ -> ());
               timed record));
        Seq engine
      end
      else begin
        let sharded = Sharded.of_online ~domains:srv.domains db engine in
        let apply = Online.mirror_sink engine in
        Sharded.set_journal sharded
          (Some
             (fun record ->
               apply record;
               timed record));
        Shard sharded
      end
    in
    (cfg, d, db, eng, seats)

(* ---------------------------- phase A ------------------------------- *)

type wire = {
  dispatch_us : float list;
  transport_us : float list;
  ops : int;
  fires : int;
  notifications : int;
  fsyncs : int;
  snapshots : int;
  wal_bytes : int;
  pending_peak : int;
  migrations : int;
  stats : Stats.t;  (** engine work over the replayed stream *)
  probe_p50_us : float;
  recover_s : float;
}

let counter name = match Obs.Counter.find name with Some c -> Obs.Counter.value c | None -> 0

let hist_sum name = match Obs.Histogram.find name with Some h -> Obs.Histogram.sum h | None -> 0L

let phase_a o ~market ~seed ~seconds =
  let dir = Filename.concat Util.work_dir (Printf.sprintf "traced-%d.wal" seed) in
  let sock = Filename.concat Util.work_dir (Printf.sprintf "traced-%d.sock" seed) in
  let cfg, d, db, eng, seats = open_engine ~market dir in
  let engine = match eng with Seq e -> Server.Sequential e | Shard e -> Server.Sharded e in
  let srv =
    Server.create (Server.default_config (Server.Unix_socket sock)) { Server.db; engine; durable = Some d; guard = None }
  in
  let conns = Array.init 2 (fun _ -> Server.Client.connect ~retries:0 (Server.Unix_socket sock)) in
  for _ = 1 to 3 do ignore (Server.step ~timeout:0.0 srv) done;
  let next_id = ref 0 in
  let pool_ids = Hashtbl.create 64 in
  let fires = ref 0 in
  (* Send one request and step the server until its response arrives;
     notifications seen on the way are counted. *)
  let request ?(setup = false) conn (req : Sched.req) =
    incr next_id;
    let id = !next_id in
    (* Set-up requests are not written to the span file (Span.write). *)
    let span_req = if setup then -2 - id else id in
    let pool_id = match req with Sched.Retire { pair } -> Option.value ~default:(-1) (Hashtbl.find_opt pool_ids pair) | _ -> 0 in
    let sum0 = hist_sum "server.request_ns" in
    let t0 = Util.now_ns () in
    let rec await () =
      let got = ref None in
      Array.iteri
        (fun i c ->
          let rec drain () =
            match Server.Client.try_recv c with
            | None -> ()
            | Some f ->
              (if J.str_mem "notify" f = Some "matched" then begin
                 if i = 0 then begin
                   incr fires;
                   note_fired seats (Sched.names_of (J.mem "queries" f))
                 end
               end
               else if i = conn && J.int_mem "id" f = Some id then got := Some f);
              drain ()
          in
          drain ())
        conns;
      match !got with
      | Some f -> f
      | None ->
        ignore (Span.with_span "server.step" (fun () -> Server.step ~timeout:0.001 srv));
        await ()
    in
    let resp = Span.with_span ~req:span_req "request" (fun () -> Server.Client.send conns.(conn) (Sched.to_json ~id ~pool_id req); await ()) in
    let rtt = Util.since_us t0 in
    let dispatch = Util.us_of_ns (Int64.sub (hist_sum "server.request_ns") sum0) in
    if J.mem "ok" resp <> Some (J.Bool true) then Report.fail o ("traced request failed: " ^ J.to_string resp)
    else note_insert seats req;
    (match req with
    | Sched.Submit { pair; half = 0; _ } -> Option.iter (Hashtbl.replace pool_ids pair) (J.int_mem "pool_id" resp)
    | _ -> ());
    (rtt, dispatch)
  in
  Array.iteri (fun i _ -> ignore (request ~setup:true i Sched.Subscribe)) conns;
  List.iter (fun r -> ignore (request ~setup:true 0 r)) (Sched.setup_ops ~market);
  (* Measure the replayed stream only, not the set-up. *)
  Obs.reset_metrics ();
  let s0 = eng_stats eng in
  let off0 = Durable.wal_offset d in
  let wal_bytes = ref 0 and last_off = ref off0 in
  let pending_peak = ref (eng_pending eng) in
  fires := 0;
  let evs, _, _ = Sched.open_stream ~market ~seed ~seconds in
  note_stream seats evs;
  let samples =
    List.map
      (fun (e : Sched.ev) ->
        Report.attempt o;
        let rtt, dispatch = request e.conn e.req in
        let off = Durable.wal_offset d in
        (* A snapshot rotates the segment and restarts the offset. *)
        wal_bytes := !wal_bytes + (if off >= !last_off then off - !last_off else off);
        last_off := off;
        pending_peak := max !pending_peak (eng_pending eng);
        (dispatch, rtt -. dispatch))
      evs
  in
  let stats = diff s0 (eng_stats eng) in
  let probe_p50 =
    match Obs.Histogram.find "eval.probe_ns" with
    | Some h when Obs.Histogram.count h > 0 -> Obs.Histogram.percentile h 0.5 /. 1e3
    | _ -> 0.0
  in
  let pending = eng_pending eng in
  let migrations = match eng with Shard e -> Sharded.migrations e | Seq _ -> 0 in
  let fsyncs = counter "wal.fsyncs" and snapshots = counter "wal.snapshots" in
  let notifications = counter "server.notifications" in
  if market then check_seats o ~phase:"server" seats db;
  (* Crash: stop serving without closing the WAL, then recover it. *)
  Array.iter Server.Client.close conns;
  Server.stop srv;
  let t0 = Util.now_ns () in
  let recovered = Span.with_span "durable.recover" (fun () -> Durable.recover cfg) in
  let recover_s = Util.since_s t0 in
  (match recovered with
  | Ok (d', _, e', _) ->
    Report.check o (Online.pending_count e' = pending) "recovered pool differs from the pre-crash pool";
    Durable.close d'
  | Error why -> Report.check o false ("recovery failed: " ^ why));
  Util.rm_rf dir;
  {
    dispatch_us = List.map fst samples;
    transport_us = List.map snd samples;
    ops = List.length evs;
    fires = !fires;
    notifications;
    fsyncs;
    snapshots;
    wal_bytes = !wal_bytes;
    pending_peak = !pending_peak;
    migrations;
    stats;
    probe_p50_us = probe_p50;
    recover_s;
  }

(* ---------------------------- phase B ------------------------------- *)

type direct = {
  wall_s : float;  (** the replayed stream, set-up excluded *)
  ground_us : float;  (** engine ground time over the stream *)
  submit_ground_us : float;  (** the part of it inside submits *)
}

let phase_b o ~market ~seed ~seconds ~tag =
  let dir = Filename.concat Util.work_dir (Printf.sprintf "direct-%s-%d.wal" tag seed) in
  (* Every replay starts from a compacted heap, so that none inherits
     the garbage of the one before. *)
  Gc.compact ();
  let _, d, db, eng, seats = open_engine ~market dir in
  let pool_ids = Hashtbl.create 64 in
  let submit_ground = ref 0L in
  let call ~req name f = Span.with_span ~req name f in
  let note_set (c : Online.coordinated) = note_fired seats (List.map (fun q -> q.Entangled.Query.name) c.queries) in
  let apply ~req (r : Sched.req) =
    let payload = call ~req "server.encode" (fun () -> J.to_string (Sched.to_json ~id:req ~pool_id:0 r)) in
    ignore (call ~req "server.decode" (fun () -> J.parse payload));
    match r with
    | Sched.Submit { text; pair; half; _ } -> (
      let q = call ~req "entangled.parse" (fun () -> Entangled.Parser.parse_query text) in
      let id = match eng with Seq e -> Online.next_id e | Shard e -> Sharded.next_id e in
      let g0 = (eng_stats eng).ground_ns in
      let res =
        call ~req "online.submit" (fun () ->
            match eng with Seq e -> Online.submit e q | Shard e -> Sharded.submit e q)
      in
      if req >= 0 then submit_ground := Int64.add !submit_ground (Int64.sub (eng_stats eng).ground_ns g0);
      match res with
      | Online.Pending -> if half = 0 then Hashtbl.replace pool_ids pair id
      | Online.Coordinated c -> note_set c
      | Online.Rejected_unsafe _ -> Report.fail o "direct replay: unsafe rejection")
    | Sched.Insert { rel; tuple; _ } ->
      let values =
        List.map (function J.Int i -> Value.int i | J.Str s -> Value.str s | _ -> Value.int 0) tuple
      in
      call ~req "relational.insert" (fun () -> Database.insert db rel values);
      note_insert seats r;
      call ~req "durable.append" (fun () -> Durable.journal_insert d rel values)
    | Sched.Create { name; attrs } ->
      ignore (Database.create_table' db name attrs);
      Durable.journal_create_table d name attrs
    | Sched.Flush ->
      List.iter note_set
        (call ~req "online.flush" (fun () ->
             match eng with Seq e -> Online.flush e | Shard e -> Sharded.flush e))
    | Sched.Retire { pair } ->
      let pool_id = Option.value ~default:(-1) (Hashtbl.find_opt pool_ids pair) in
      let ok =
        call ~req "online.withdraw" (fun () ->
            match eng with Seq e -> Online.withdraw e pool_id | Shard e -> Sharded.withdraw e pool_id)
      in
      if not ok then Report.fail o "direct replay: withdraw found nothing"
    | Sched.Subscribe -> ()
  in
  List.iteri (fun i r -> apply ~req:(-2 - i) r) (Sched.setup_ops ~market);
  let s0 = eng_stats eng in
  let evs, _, _ = Sched.open_stream ~market ~seed ~seconds in
  note_stream seats evs;
  let t0 = Util.now_ns () in
  List.iteri (fun i (e : Sched.ev) -> Span.with_span ~req:i "request" (fun () -> apply ~req:i e.req)) evs;
  let wall_s = Util.since_s t0 in
  let st = diff s0 (eng_stats eng) in
  if market then check_seats o ~phase:("direct " ^ tag) seats db;
  Durable.close d;
  Util.rm_rf dir;
  ( { wall_s; ground_us = Util.us_of_ns st.ground_ns; submit_ground_us = Util.us_of_ns !submit_ground },
    conflicts seats,
    List.length evs )

(* Mean duration of the spans called [name]: over the replayed stream,
   or with [~setup:true] over the set-up too. *)
let mean_us ?(setup = false) name =
  Util.mean
    (List.filter_map
       (fun (s : Span.t) -> if setup || s.req >= 0 then Some (Util.us_of_ns (Span.duration_ns s)) else None)
       (Span.named name))

let run market ~seed ~seconds o =
  Obs.set_metrics true;
  Span.enabled := true;
  let a = phase_a o ~market ~seed ~seconds in
  let a_spans = !Span.spans in
  let replay ~traced tag =
    Span.reset ();
    Span.enabled := traced;
    Obs.set_metrics traced;
    let r = phase_b o ~market ~seed ~seconds ~tag in
    Span.enabled := false;
    r
  in
  (* A warm-up replay, then untraced and traced ones in turn: two
     identical replays differ by up to ~15% on a shared host, so the
     overhead is taken over two of each.  The per-layer figures come
     from the last one. *)
  ignore (replay ~traced:false "warm-up");
  let u1, _, _ = replay ~traced:false "untraced-1" in
  let t1, _, _ = replay ~traced:true "traced-1" in
  let u2, _, _ = replay ~traced:false "untraced-2" in
  let b, conflicts, ops = replay ~traced:true "traced-2" in
  (* Submit self time: the submit span minus its nested WAL appends and
     the engine's ground time inside it. *)
  let by_parent = Hashtbl.create 1024 in
  List.iter
    (fun (s : Span.t) ->
      if s.name = "durable.append" then
        Hashtbl.replace by_parent s.parent
          (Int64.add (Span.duration_ns s) (Option.value ~default:0L (Hashtbl.find_opt by_parent s.parent))))
    !Span.spans;
  let submits = List.filter (fun s -> s.Span.req >= 0) (Span.named "online.submit") in
  let submit_total = Util.sum (List.map (fun s -> Util.us_of_ns (Span.duration_ns s)) submits) in
  let append_in_submits =
    Util.sum (List.map (fun (s : Span.t) -> Util.us_of_ns (Option.value ~default:0L (Hashtbl.find_opt by_parent s.id))) submits)
  in
  let n_submits = max 1 (List.length submits) in
  let submit_self = (submit_total -. append_in_submits -. b.submit_ground_us) /. float_of_int n_submits in
  let st = a.stats in
  let ops_f = float_of_int (max 1 a.ops) in
  let metrics = [
    ("server.decode_us", mean_us "server.decode");
    ("server.encode_us", mean_us "server.encode");
    ("server.transport_p50_us", Util.median a.transport_us);
    ("server.dispatch_p50_us", Util.percentile a.dispatch_us 0.5);
    ("server.dispatch_p99_us", Util.percentile a.dispatch_us 0.99);
    ("server.notifications_per_fire", Util.ratio a.notifications a.fires);
    ("entangled.parse_us", mean_us "entangled.parse");
    ("entangled.ground_us_per_op", b.ground_us /. float_of_int (max 1 ops));
    ("entangled.graph_ms", Util.us_of_ns st.graph_ns /. 1e3);
    ("entangled.unify_ms", Util.us_of_ns st.unify_ns /. 1e3);
    ("online.submit_self_us", submit_self);
    ("online.flush_us", mean_us "online.flush");
    ("online.withdraw_us", mean_us "online.withdraw");
    ("online.inventory_conflicts", float_of_int conflicts);
    ("online.pending_peak", float_of_int a.pending_peak);
    ("online_sharded.migrations", float_of_int a.migrations);
    ("scc_algo.candidates", float_of_int st.candidates);
    ("consistent.cleaning_rounds", float_of_int st.cleaning_rounds);
    ("relational.probes", float_of_int st.db_probes);
    ("relational.tuples_scanned", float_of_int st.tuples_scanned);
    ("relational.tuples_scanned_per_probe", Util.ratio st.tuples_scanned st.db_probes);
    ("relational.plan_hits", float_of_int st.plan_hits);
    ("relational.plan_misses", float_of_int st.plan_misses);
    ("relational.plan_hit_ratio", Util.ratio st.plan_hits (st.plan_hits + st.plan_misses));
    ("relational.probe_p50_us", a.probe_p50_us);
    ("relational.insert_us", mean_us ~setup:true "relational.insert");
    ("durable.append_us", mean_us "durable.append");
    ("durable.fsyncs", float_of_int a.fsyncs);
    ("durable.fsyncs_per_op", float_of_int a.fsyncs /. ops_f);
    ("durable.wal_bytes", float_of_int a.wal_bytes);
    ("durable.wal_bytes_per_op", float_of_int a.wal_bytes /. ops_f);
    ("durable.snapshots", float_of_int a.snapshots);
    ("durable.recover_s", a.recover_s);
    ("bench.trace_overhead", (t1.wall_s +. b.wall_s) /. (u1.wall_s +. u2.wall_s));
    ("extra.ground_share_of_submit", if submit_total > 0.0 then b.submit_ground_us /. submit_total else 0.0);
  ] in
  (* Phase A's spans go to the span file too, once B's figures are taken. *)
  Span.spans := !Span.spans @ a_spans;
  metrics
