(* Seeded request streams for the two serve workloads.  Everything the
   server receives is generated here from the seed; the same seed gives
   the same data, the same requests and the same due times. *)

open Relational
open Entangled
module J = Server.Json

type req =
  | Submit of { pair : int; half : int; event : int; text : string }
      (** half 0 arrives first; half 1 completes the pair *)
  | Insert of { rel : string; tuple : J.t list; event : int }
  | Flush
  | Retire of { pair : int }  (** withdraw the pair's pending first half *)
  | Create of { name : string; attrs : string list }
  | Subscribe

type ev = { due : float;  (** seconds from the phase start *) conn : int; req : req }

(* The server each serve workload runs: rendered as `entangle serve`
   flags for the end-to-end run, and built in-process from the same
   record by the traced run. *)
type server = {
  fsync : Durable.fsync_policy;
  domains : int;
  consume : bool;
  backend : Database.backend;
}

(* serve-market commits its WAL like serve-pairs, an fsync every 64
   groups.  With an fsync per operation its saturation rate and set-up
   time (10,000 fsynced inserts) followed the host's shared virtual
   disk: peak_ops_s spread 0.20-0.42 over four 10-seed sets and the
   set-up median moved 30% between two sets 25 minutes apart, beyond
   the largest bound a metric may declare (0.25). *)
let server ~market =
  if market then { fsync = Durable.Every_n 64; domains = 1; consume = true; backend = Database.Columnar }
  else { fsync = Durable.Every_n 64; domains = 2; consume = false; backend = Database.Row }

let server_flags s =
  [ "--fsync"; Durable.fsync_policy_to_string s.fsync ]
  @ (if s.domains > 1 then [ "--domains"; string_of_int s.domains ] else [])
  @ (if s.consume then [ "--consume" ] else [])
  @ (if s.backend <> Database.Row then [ "--backend"; Database.backend_to_string s.backend ] else [])
  @ [ "--metrics" ]

let rate = 40.0  (* open-loop operations per second *)
let posts_rows = 20_000
let topics = 100
let standing = 500
let seats = 10_000
let events = 200

(* serve-market's traffic mix rests on three assumptions, chosen for
   this benchmark rather than measured on a real booking service: event
   popularity is Zipf with this exponent, a flush follows every
   [flush_every]-th restock, and a retire targets a first half that has
   been pending, and whose partner is still due, at least
   [retire_margin_s] away from the retire. *)
let zipf_exponent = 1.3
let flush_every = 4
let retire_margin_s = 0.3

let const s = Term.Const (Value.Str s)
let answer u terms = { Cq.rel = "R"; args = Array.of_list (const u :: terms) }

let to_text ~name ~post ~head body =
  Parser.query_to_string (Query.make ~name ~post:[ post ] ~head:[ head ] [ body ])

(* serve-pairs query shape: the partners agree on a value [v] that
   neither body binds, so grounding picks it from the active domain —
   an offer that leaves one attribute open to whatever the partner
   accepts. *)
let offer ~name ~me ~partner ~topic =
  let v = Term.Var "v" and x = Term.Var "x" and y = Term.Var "y" in
  to_text ~name
    ~post:(answer partner [ y; v ])
    ~head:(answer me [ x; v ])
    { Cq.rel = "Posts"; args = [| x; const (Workload.Social.topic topic) |] }

(* serve-market query shape: a booking on one seat of [event]; the two
   partners' bodies may ground onto the same seat, a double spend the
   engine reports. *)
let booking ~name ~me ~partner ~event =
  let x = Term.Var "x" and y = Term.Var "y" in
  to_text ~name ~post:(answer partner [ y ]) ~head:(answer me [ x ])
    { Cq.rel = "Seats"; args = [| x; const (Printf.sprintf "e%d" event) |] }

let pair_name pair half = Printf.sprintf "%s%d" (if half = 0 then "pa" else "pb") pair
let pair_const pair half = Printf.sprintf "%s%d" (if half = 0 then "PA" else "PB") pair

(* The query names of a "queries" field of a frame. *)
let names_of = function
  | Some (J.Arr items) -> List.filter_map (function J.Str s -> Some s | _ -> None) items
  | _ -> []

(* The pair a fired set must be: exactly its two halves. *)
let pair_of_set names =
  let parse s =
    if String.length s > 2 then
      match (String.sub s 0 2, int_of_string_opt (String.sub s 2 (String.length s - 2))) with
      | "pa", Some p -> Some (p, 0)
      | "pb", Some p -> Some (p, 1)
      | _ -> None
    else None
  in
  match List.map parse names with
  | [ Some (p, h); Some (q, k) ] when p = q && h <> k -> Some p
  | _ -> None

let pair_submit ~market ~rng ~pair ~event =
  List.map
    (fun half ->
      let name = pair_name pair half in
      let me = pair_const pair half and partner = pair_const pair (1 - half) in
      let text =
        if market then booking ~name ~me ~partner ~event
        else offer ~name ~me ~partner ~topic:(Prng.int rng topics)
      in
      Submit { pair; half; event; text })
    [ 0; 1 ]

let insert_row rel values = Insert { rel; tuple = values; event = -1 }

(* ---------------------------- data --------------------------------- *)

let posts_load () =
  Create { name = "Posts"; attrs = [ "pid"; "topic" ] }
  :: List.init posts_rows (fun pid ->
         insert_row "Posts" [ J.Int pid; J.Str (Workload.Social.topic (pid mod topics)) ])

(* Unmatched offers that stay pending for the whole run: partners that
   never arrive. *)
let standing_offers () =
  List.init standing (fun j ->
      let text =
        offer ~name:(Printf.sprintf "so%d" j)
          ~me:(Printf.sprintf "SO%d" j) ~partner:(Printf.sprintf "SW%d" j)
          ~topic:(j mod topics)
      in
      Submit { pair = -1 - j; half = 0; event = -1; text })

(* Every event gets the same number of seats; Zipf-skewed demand alone
   makes the popular events sell out. *)
let seat_event sid = sid * events / seats

let seats_load () =
  Create { name = "Seats"; attrs = [ "sid"; "event" ] }
  :: List.init seats (fun sid ->
         let e = seat_event sid in
         Insert { rel = "Seats"; tuple = [ J.Int sid; J.Str (Printf.sprintf "e%d" e) ]; event = e })

(* --------------------------- streams ------------------------------- *)

let partner_delay rng = 0.9 +. (0.2 *. Prng.float rng)

(* serve-pairs open loop: Poisson submits at [rate]; a pair's second
   half follows its first by about a second on the other connection. *)
let pairs_stream ~seed ~duration ~first_pair =
  let rng = Prng.create (seed * 7 + 1) in
  let evs = ref [] and t = ref 0.0 and pair = ref first_pair in
  (* Each pair is two submits, so pairs start at half the op rate. *)
  let start_rate = rate /. 2.0 in
  t := Util.exp_gap rng start_rate;
  while !t < duration do
    let c = Prng.int rng 2 in
    (match pair_submit ~market:false ~rng ~pair:!pair ~event:(-1) with
    | [ a; b ] ->
      evs := { due = !t +. partner_delay rng; conn = 1 - c; req = b } :: { due = !t; conn = c; req = a } :: !evs
    | _ -> assert false);
    incr pair;
    t := !t +. Util.exp_gap rng start_rate
  done;
  (List.stable_sort (fun a b -> compare a.due b.due) !evs, !pair)

(* Slot mix for serve-market: a pair slot yields two submits, so slot
   weights 0.40 / 0.15 / 0.05 give about 80% submits, 15% restocks and
   5% retires of the operations. *)
let market_stream ~seed ~duration ~first_pair ~first_sid =
  let rng = Prng.create (seed * 7 + 2) in
  let popularity = Util.zipf events zipf_exponent in
  let w_pair = 0.40 and w_restock = 0.15 and w_retire = 0.05 in
  let w_total = w_pair +. w_restock +. w_retire in
  let ops_per_slot = ((2.0 *. w_pair) +. w_restock +. w_retire) /. w_total in
  let slot_rate = rate /. ops_per_slot in
  let evs = ref [] and t = ref (Util.exp_gap rng slot_rate) in
  let pair = ref first_pair and sid = ref first_sid and restocks = ref 0 in
  (* Pairs whose first half is pending long enough before the retire
     (its pool id is known) and whose partner is still well ahead. *)
  let open_firsts = ref [] in
  while !t < duration do
    let u = Prng.float rng *. w_total in
    (if u < w_pair then begin
       let event = popularity rng in
       let c = Prng.int rng 2 in
       let d = partner_delay rng in
       (match pair_submit ~market:true ~rng ~pair:!pair ~event with
       | [ a; b ] ->
         evs := { due = !t +. d; conn = 1 - c; req = b } :: { due = !t; conn = c; req = a } :: !evs;
         open_firsts := (!pair, !t, !t +. d, c) :: !open_firsts
       | _ -> assert false);
       incr pair
     end
     else if u < w_pair +. w_restock then begin
       let event = popularity rng in
       let c = Prng.int rng 2 in
       evs :=
         { due = !t; conn = c; req = Insert { rel = "Seats"; tuple = [ J.Int !sid; J.Str (Printf.sprintf "e%d" event) ]; event } }
         :: !evs;
       incr sid;
       incr restocks;
       if !restocks mod flush_every = 0 then evs := { due = !t +. 0.001; conn = c; req = Flush } :: !evs
     end
     else
       let now = !t in
       match
         List.find_opt
           (fun (_, first, second, _) -> first < now -. retire_margin_s && second > now +. retire_margin_s)
           !open_firsts
       with
       | Some ((p, _, _, c) as target) ->
         open_firsts := List.filter (fun x -> x != target) !open_firsts;
         evs := { due = now; conn = c; req = Retire { pair = p } } :: !evs
       | None -> ());
    open_firsts := List.filter (fun (_, _, second, _) -> second > !t) !open_firsts;
    t := !t +. Util.exp_gap rng slot_rate
  done;
  (List.stable_sort (fun a b -> compare a.due b.due) !evs, !pair, !sid)

(* The open-loop phase's share of a run's [seconds]; the rest is the
   saturation phase.  serve-pairs takes its gated latencies from the
   open loop and serve-market from saturation (Serve.measure), so each
   gives the larger share to the phase its latencies come from. *)
let open_loop_share ~market = if market then 0.4 else 0.7

(* The open-loop stream, and the first pair and seat ids the
   saturation phase may use. *)
let open_stream ~market ~seed ~seconds =
  let duration = open_loop_share ~market *. float_of_int seconds in
  if market then market_stream ~seed ~duration ~first_pair:0 ~first_sid:seats
  else
    let evs, next_pair = pairs_stream ~seed ~duration ~first_pair:0 in
    (evs, next_pair, seats)

let setup_ops ~market = if market then seats_load () else posts_load () @ standing_offers ()

(* Saturation phase: an endless supply of pairs, sent as fast as each
   connection's window allows; half 0 goes to connection 0 and half 1
   to connection 1, pair by pair.  In the market every booking is
   followed by a restock of its event (and a flush after every
   [flush_every]-th restock), so inventory stays level and the phase
   measures a steady state instead of draining the table. *)
let saturation_ops ~market ~seed ~first_pair ~first_sid =
  let rng = Prng.create (seed * 7 + 3) in
  let popularity = Util.zipf events zipf_exponent in
  let pair = ref first_pair and sid = ref first_sid in
  let queue = Array.make 2 [] in
  let refill () =
    let event = if market then popularity rng else -1 in
    (* The halves alternate connections, and the restock goes with the
       second half, so both connections carry the same load. *)
    let c = !pair land 1 in
    (match pair_submit ~market ~rng ~pair:!pair ~event with
    | [ a; b ] ->
      let restock =
        if not market then []
        else begin
          let ins = Insert { rel = "Seats"; tuple = [ J.Int !sid; J.Str (Printf.sprintf "e%d" event) ]; event } in
          incr sid;
          if (!sid - first_sid) mod flush_every = 0 then [ ins; Flush ] else [ ins ]
        end
      in
      queue.(c) <- queue.(c) @ [ a ];
      queue.(1 - c) <- queue.(1 - c) @ (b :: restock)
    | _ -> assert false);
    incr pair
  in
  (* A connection that ran dry refills both queues, unless the other
     one still holds a refill's worth: the queues stay within a refill
     of each other, so first halves never pile up pending, and neither
     connection waits on the other with its window open. *)
  let batch = 32 in
  fun conn ->
    match queue.(conn) with
    | r :: rest ->
      queue.(conn) <- rest;
      Some r
    | [] when List.length queue.(1 - conn) < 2 * batch ->
      for _ = 1 to batch do refill () done;
      (match queue.(conn) with
      | r :: rest ->
        queue.(conn) <- rest;
        Some r
      | [] -> None)
    | [] -> None

let to_json ~id ~pool_id req =
  let base op fields = J.Obj (("id", J.Int id) :: ("op", J.Str op) :: fields) in
  match req with
  | Submit { text; _ } -> base "submit" [ ("query", J.Str text) ]
  | Insert { rel; tuple; _ } -> base "insert" [ ("rel", J.Str rel); ("tuple", J.Arr tuple) ]
  | Flush -> base "flush" []
  | Retire _ -> base "retire" [ ("pool_id", J.Int pool_id) ]
  | Subscribe -> base "subscribe" []
  | Create { name; attrs } -> base "create_table" [ ("name", J.Str name); ("attrs", J.Arr (List.map (fun a -> J.Str a) attrs)) ]
