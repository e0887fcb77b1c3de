module Binding = Map.Make (String)

type valuation = Value.t Binding.t

exception Unknown_relation = Plan.Unknown_relation
exception Arity_mismatch = Plan.Arity_mismatch

let get_relation db (a : Cq.atom) =
  match Database.relation_opt db a.rel with
  | None -> raise (Unknown_relation a.rel)
  | Some r ->
    let expected = Relation.arity r and got = Array.length a.args in
    if got <> expected then raise (Arity_mismatch (a.rel, got, expected));
    r

(* The compiled evaluator: canonicalize, fetch or build the plan
   (per-database cache keyed by query shape), execute over an integer
   slot frame.  Returns the instance binding (variable names per slot)
   and a runner.  On a columnar database the runner goes through the
   allocation-free {!Cursor} machine against the Bigarray mirrors; the
   solution stream and counter deltas are identical either way. *)
let prepare_compiled ~cache db q =
  let plan, binding = Database.prepare ~cache db q in
  let run =
    match Database.backend db with
    | Database.Row ->
      fun on_frame ->
        Plan.execute plan
          (Database.relation_opt db)
          (Database.counters db) binding ~on_frame
    | Database.Columnar ->
      fun on_frame ->
        let exec = Cursor.prepare db plan in
        Cursor.bind_params exec binding.Plan.params;
        Cursor.iter_frames exec (Database.counters db) on_frame
  in
  (binding, run)

(* Counting runner: like [prepare_compiled] but returns [limit -> n]
   without materialising frames — on the columnar path this is the
   fully allocation-free [Cursor.run_count]. *)
let prepare_counting ~cache db q =
  let plan, binding = Database.prepare ~cache db q in
  match Database.backend db with
  | Database.Row ->
    fun limit ->
      let n = ref 0 in
      Plan.execute plan
        (Database.relation_opt db)
        (Database.counters db) binding
        ~on_frame:(fun _ ->
          incr n;
          !n < limit);
      !n
  | Database.Columnar ->
    fun limit ->
      let exec = Cursor.prepare db plan in
      Cursor.bind_params exec binding.Plan.params;
      Cursor.run_count exec (Database.counters db) ~limit

let snapshot_frame (binding : Plan.binding) frame =
  let b = ref Binding.empty in
  Array.iteri (fun s x -> b := Binding.add x frame.(s) !b) binding.var_names;
  !b

(* ------------------------------------------------------------------ *)
(* Probe-level observability                                          *)
(* ------------------------------------------------------------------ *)

let probe_hist =
  Obs.Histogram.make ~help:"per-probe evaluator latency (ns)" "eval.probe_ns"

let probe_count =
  Obs.Counter.make ~help:"conjunctive-query probes issued" "eval.probes"

let rels_label (q : Cq.t) =
  String.concat ","
    (List.sort_uniq String.compare
       (List.map (fun (a : Cq.atom) -> a.Cq.rel) q.atoms))

(* Solvers probe a handful of query templates over and over (the plan
   cache banks on the same fact), and probes that ground the same
   template share their relation-name strings physically even when the
   [Cq.t] values are fresh.  So the label->counter map is a small array
   scanned with pointer compares — no string is built and nothing is
   hashed on a hit.  Each new template appends once; past
   [max_label_memo] distinct templates the overflow path rebuilds the
   label per probe, which only prices workloads the plan cache already
   handles badly.  A plain ref is fine across domains: workers run with
   metrics off, and a racy append costs at most a duplicate entry for
   the same registry counter. *)
let rec same_rels (atoms : Cq.atom list) rels =
  match (atoms, rels) with
  | [], [] -> true
  | a :: atl, r :: rtl -> a.Cq.rel == r && same_rels atl rtl
  | _ -> false

let max_label_memo = 64

let label_memo : (string list * Obs.Counter.t) array ref = ref [||]

let probe_label_counter (q : Cq.t) =
  let memo = !label_memo in
  let n = Array.length memo in
  let rec find i =
    if i < n then begin
      let rels, c = memo.(i) in
      if same_rels q.atoms rels then c else find (i + 1)
    end
    else begin
      let c = Obs.Counter.labeled "eval.probes" (rels_label q) in
      if n < max_label_memo then begin
        let rels = List.map (fun (a : Cq.atom) -> a.Cq.rel) q.atoms in
        label_memo := Array.append memo [| (rels, c) |]
      end;
      c
    end
  in
  find 0

(* Resilience middleware: with a guard armed on the database, the probe
   body runs under budget checks, fault injection and retries
   ({!Resilient.probe}); transient faults strike before the body
   executes, so a retried probe never re-delivers solver callbacks.
   Disarmed, this is one field load and a branch. *)
let guarded db f =
  match Database.guard db with
  | None -> f ()
  | Some g ->
    let counters = Database.counters db in
    Resilient.probe g
      ~tuples_scanned:(fun () -> counters.Counters.tuples_scanned)
      f

(* Every probe entry point funnels through here.  Disarmed, this is the
   old code plus two branches; armed, the probe runs inside an
   "eval.probe" span carrying the relation names, plan-cache outcome
   and tuples-scanned delta, and feeds the probe-latency histogram.
   [Database.count_probe] runs inside the measured section so emulated
   round-trip latency shows up in the histogram, as it would over a
   real connection.  The Obs span sits outside the guard so retried
   attempts land inside one probe span. *)
let probed db (q : Cq.t) ~kind f =
  if not (Obs.enabled ()) then
    guarded db (fun () ->
        Database.count_probe db;
        f ())
  else if not (Obs.tracing () || Obs.metrics_on ()) then
    (* Only the flight recorder is armed.  It wants the probe span in
       its window but must stay at ~100ns per probe, so skip the label
       building, counter snapshots and per-label registry increments
       that sinks and the metrics registry pay for. *)
    Obs.with_span ~hist:probe_hist "eval.probe" (fun () ->
        guarded db (fun () ->
            Database.count_probe db;
            f ()))
  else begin
    if Obs.metrics_on () then begin
      Obs.Counter.incr probe_count;
      Obs.Counter.incr (probe_label_counter q)
    end;
    if not (Obs.tracing ()) then
      (* Registry (and possibly the recorder) armed, but no sink: the
         args thunk would never be forced, so don't build the counter
         snapshot it closes over. *)
      Obs.with_span ~hist:probe_hist "eval.probe" (fun () ->
          guarded db (fun () ->
              Database.count_probe db;
              f ()))
    else begin
      let label = rels_label q in
      let before = Database.snapshot_counters db in
      let args () =
        let d =
          Counters.diff ~before ~after:(Database.snapshot_counters db)
        in
        [
          ("rels", Obs.Str label);
          ("atoms", Obs.Int (List.length q.atoms));
          ("kind", Obs.Str kind);
          ("plan_hit", Obs.Bool (d.plan_misses = 0));
          ("tuples_scanned", Obs.Int d.tuples_scanned);
        ]
      in
      Obs.with_span ~args ~hist:probe_hist "eval.probe" (fun () ->
          guarded db (fun () ->
              Database.count_probe db;
              f ()))
    end
  end

let solve ?(cache = true) db (q : Cq.t) ~on_solution =
  probed db q ~kind:"solve" @@ fun () ->
  let binding, run = prepare_compiled ~cache db q in
  run (fun frame -> on_solution (snapshot_frame binding frame))

let find_first ?cache db q =
  let result = ref None in
  solve ?cache db q ~on_solution:(fun b ->
      result := Some b;
      false);
  !result

(* No valuation snapshot needed: stop at the first frame. *)
let satisfiable ?(cache = true) db q =
  probed db q ~kind:"satisfiable" @@ fun () ->
  let run = prepare_counting ~cache db q in
  run 1 > 0

let find_all ?cache ?limit db q =
  let results = ref [] in
  let n = ref 0 in
  let continue_after () =
    incr n;
    match limit with None -> true | Some l -> !n < l
  in
  solve ?cache db q ~on_solution:(fun b ->
      results := b :: !results;
      continue_after ());
  List.rev !results

(* Counts frames directly — no per-solution valuation map is
   materialized. *)
let count ?(cache = true) db q =
  probed db q ~kind:"count" @@ fun () ->
  let run = prepare_counting ~cache db q in
  run max_int

let distinct_projections ?(cache = true) db q vars =
  let qvars = Cq.variables q in
  List.iter
    (fun x ->
      if not (List.mem x qvars) then
        invalid_arg
          (Printf.sprintf "Eval.distinct_projections: %s not in query" x))
    vars;
  probed db q ~kind:"distinct" @@ fun () ->
  let binding, run = prepare_compiled ~cache db q in
  (* Project straight out of the slot frame. *)
  let slot_of x =
    let slot = ref (-1) in
    Array.iteri
      (fun s y -> if String.equal x y then slot := s)
      binding.Plan.var_names;
    assert (!slot >= 0);
    !slot
  in
  let slots = Array.of_list (List.map slot_of vars) in
  let acc = ref Tuple.Set.empty in
  run (fun frame ->
      let t = Array.map (fun s -> frame.(s)) slots in
      acc := Tuple.Set.add t !acc;
      true);
  !acc

let check_ground db q =
  if not (Cq.is_ground q) then
    invalid_arg "Eval.check_ground: query has variables";
  probed db q ~kind:"check_ground" @@ fun () ->
  List.for_all
    (fun (a : Cq.atom) ->
      let r = get_relation db a in
      let t = Array.map (function Term.Const v -> v | Term.Var _ -> assert false) a.args in
      Relation.mem r t)
    q.atoms

(* ------------------------------------------------------------------ *)
(* Repeat-probe handles                                               *)
(* ------------------------------------------------------------------ *)

(* A prepared query: canonicalized and compiled once, re-executed many
   times with swapped constants.  This is the raw probe loop with all
   per-probe scaffolding stripped — no Obs span, no resilience guard,
   no valuation snapshots — for callers (the storage bench, tight
   server loops) that issue the same shape millions of times.  On a
   columnar database the whole [count]/[satisfiable] path is
   allocation-free in steady state. *)
module Prepared = struct
  type prepared = {
    db : Database.t;
    plan : Plan.t;
    binding : Plan.binding;
    exec : Cursor.t option;  (* Some iff the database is columnar *)
  }

  type t = prepared

  let make db q =
    let plan, binding = Database.prepare db q in
    let exec =
      match Database.backend db with
      | Database.Columnar -> Some (Cursor.prepare db plan)
      | Database.Row -> None
    in
    { db; plan; binding; exec }

  let nparams t = Array.length t.binding.Plan.params

  let set_param t j v = t.binding.Plan.params.(j) <- v

  let count_limit t limit =
    Database.count_probe t.db;
    match t.exec with
    | Some exec ->
      Cursor.bind_params exec t.binding.Plan.params;
      Cursor.run_count exec (Database.counters t.db) ~limit
    | None ->
      let n = ref 0 in
      Plan.execute t.plan
        (Database.relation_opt t.db)
        (Database.counters t.db) t.binding
        ~on_frame:(fun _ ->
          incr n;
          !n < limit);
      !n

  let count t = count_limit t max_int

  let satisfiable t = count_limit t 1 > 0
end

let pp_valuation ppf b =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (x, v) -> Format.fprintf ppf "%s -> %a" x Value.pp v))
    (Binding.bindings b)

module Naive = struct
  (* Reference semantics for tests: enumerate every combination of tuples
     for the atoms and keep consistent ones.  Every atom is resolved
     before enumeration, so an unknown relation or a wrong arity raises
     even when an earlier atom matches nothing — as on the compiled
     path. *)
  let find_all db (q : Cq.t) =
    Database.count_probe db;
    let atoms = List.map (fun a -> (a, get_relation db a)) q.atoms in
    let rec go binding = function
      | [] -> [ binding ]
      | ((a : Cq.atom), r) :: rest ->
        Relation.fold
          (fun acc t ->
            let rec unify binding i =
              if i = Array.length a.args then Some binding
              else
                match a.args.(i) with
                | Term.Const v ->
                  if Value.equal v t.(i) then unify binding (i + 1) else None
                | Term.Var x -> (
                  match Binding.find_opt x binding with
                  | Some v ->
                    if Value.equal v t.(i) then unify binding (i + 1) else None
                  | None -> unify (Binding.add x t.(i) binding) (i + 1))
            in
            match unify binding 0 with
            | None -> acc
            | Some binding' -> acc @ go binding' rest)
          [] r
    in
    let all = go Binding.empty atoms in
    (* Dedupe: distinct valuations only. *)
    List.sort_uniq (Binding.compare Value.compare) all
end
