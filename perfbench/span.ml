(* The traced run's span recorder.  Spans are opened by the benchmark's
   own code around each call into a layer's public functions (tracing
   inside lib/ is a separate concern), kept in memory, and written out
   once at exit.  A span records its name, start and end (monotonic
   ns), its parent span and the request it belongs to. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  req : int;  (** request id, [-1] outside any request *)
  start_ns : int64;
  mutable end_ns : int64;
}

let enabled = ref false
let spans : t list ref = ref []
let next_id = ref 0
let stack : t list ref = ref []

let with_span ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let parent, req =
      match !stack with
      | p :: _ -> (p.id, if req >= 0 then req else p.req)
      | [] -> (-1, req)
    in
    let s =
      { id = !next_id; name; parent; req; start_ns = Util.now_ns (); end_ns = 0L }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.end_ns <- Util.now_ns ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

let duration_ns s = Int64.sub s.end_ns s.start_ns

let named name = List.filter (fun s -> s.name = name) (List.rev !spans)

(* Drops the recorded spans; ids keep counting, so every id in the
   written file stays unique and parents resolve. *)
let reset () =
  spans := [];
  stack := []

(* Set-up spans (request ids below -1) stay in memory for the
   per-layer figures but are not written: tens of thousands of inserts
   would dwarf the replayed stream. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"req\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.name s.parent s.req s.start_ns s.end_ns)
    (List.filter (fun s -> s.req >= -1) (List.rev !spans));
  close_out oc
