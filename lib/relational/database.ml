type backend = Row | Columnar

let backend_to_string = function Row -> "row" | Columnar -> "columnar"

let backend_of_string = function
  | "row" -> Some Row
  | "columnar" -> Some Columnar
  | _ -> None

type t = {
  tables : (string, Relation.t) Hashtbl.t;
  counters : Counters.t;
  plan_cache : (string, Plan.t) Hashtbl.t;
  plan_lock : Mutex.t;
      (* serialises plan_cache lookup+compile+insert; shared (like the
         cache itself) between a database and its worker views *)
  backend : backend;
  uid : int;
      (* process-unique instance id, shared with worker views; keys the
         cursor's per-domain compiled-exec cache *)
  plan_epoch : int Atomic.t;
      (* bumped with every plan-cache invalidation; shared with worker
         views so stale cursor execs die with the plans they compiled *)
  version : int Atomic.t;
      (* per-database content version: passed into every relation this
         database creates (each successful insert/delete bumps it) and
         bumped directly on structural changes.  Shared with worker
         views.  Unlike [Relation.mutation_count] this stamp moves only
         when *this* database's contents move. *)
  min_cache : (int * Value.t option) Atomic.t;
      (* [(v, m)]: [m] is the least live value of every table at data
         version [v].  Shared with worker views, like [version]. *)
  mutable probe_latency : float;  (* seconds added per probe *)
  mutable guard : Resilient.t option;  (* resilience middleware, if armed *)
}

let next_uid = Atomic.make 0

let create ?(backend = Row) () =
  {
    tables = Hashtbl.create 16;
    counters = Counters.create ();
    plan_cache = Hashtbl.create 64;
    plan_lock = Mutex.create ();
    backend;
    uid = Atomic.fetch_and_add next_uid 1;
    plan_epoch = Atomic.make 0;
    version = Atomic.make 0;
    min_cache = Atomic.make (-1, None);
    probe_latency = 0.0;
    guard = None;
  }

(* A worker view shares the parent's tables, plan cache and lock — so
   concurrent solves see one store and one compile-once cache — but has
   private counters (merged by the caller afterwards) and its own guard
   slot (one shard's budget, not the parent's).  [uid] and [plan_epoch]
   are shared too: a view probes the same stores, so it must hit the
   same cursor-exec cache entries and see the same invalidations. *)
let worker_view ?guard db =
  {
    tables = db.tables;
    counters = Counters.create ();
    plan_cache = db.plan_cache;
    plan_lock = db.plan_lock;
    backend = db.backend;
    uid = db.uid;
    plan_epoch = db.plan_epoch;
    version = db.version;
    min_cache = db.min_cache;
    probe_latency = db.probe_latency;
    guard;
  }

let backend db = db.backend

let uid db = db.uid

let plan_epoch db = Atomic.get db.plan_epoch

(* Plans bake in join orders chosen against the schema (and, for
   tie-breaks, cardinalities) seen at compile time; schema changes make
   them meaningless, so the cache empties wholesale and the epoch bump
   retires every per-domain cursor exec derived from it. *)
let invalidate_plans db =
  Hashtbl.reset db.plan_cache;
  Atomic.incr db.plan_epoch

let create_table db schema =
  let name = Schema.name schema in
  if Hashtbl.mem db.tables name then
    invalid_arg (Printf.sprintf "Database.create_table: %s already exists" name);
  let r =
    Relation.create ~columnar:(db.backend = Columnar) ~version:db.version
      schema
  in
  Hashtbl.add db.tables name r;
  invalidate_plans db;
  Atomic.incr db.version;
  Relation.note_mutation ();
  r

let create_table' db name attrs = create_table db (Schema.make name attrs)

let drop_table db name =
  if Hashtbl.mem db.tables name then begin
    Hashtbl.remove db.tables name;
    invalidate_plans db;
    Atomic.incr db.version;
    Relation.note_mutation ()
  end

let relation db name =
  match Hashtbl.find_opt db.tables name with
  | Some r -> r
  | None -> raise Not_found

let relation_opt db name = Hashtbl.find_opt db.tables name

let mem_relation db name = Hashtbl.mem db.tables name

let relations db =
  Hashtbl.fold (fun _ r acc -> r :: acc) db.tables []
  |> List.sort (fun a b -> String.compare (Relation.name a) (Relation.name b))

let insert db rel vs = ignore (Relation.insert (relation db rel) (Tuple.make vs))

let total_tuples db =
  List.fold_left (fun acc r -> acc + Relation.cardinal r) 0 (relations db)

let data_version db = Atomic.get db.version

let scan_min db =
  let found = ref false and least = ref (Value.Int 0) in
  let visit v =
    if (not !found) || Value.compare v !least < 0 then begin
      found := true;
      least := v
    end
  in
  Hashtbl.iter (fun _ r -> Relation.iter (Array.iter visit) r) db.tables;
  if !found then Some !least else None

(* The version is read before the scan: a write racing the scan moves
   the version past the stored stamp, so the next call rescans rather
   than trust a minimum that may predate the write.  Concurrent misses
   at one version compute the same value, so the last store wins
   harmlessly. *)
let min_value db =
  let version = Atomic.get db.version in
  match Atomic.get db.min_cache with
  | v, least when v = version -> least
  | _ ->
    let least = scan_min db in
    Atomic.set db.min_cache (version, least);
    least

(* ------------------------------------------------------------------ *)
(* Plan cache                                                         *)
(* ------------------------------------------------------------------ *)

let prepare ?(cache = true) db q =
  let key, shape, binding = Plan.canonicalize q in
  let plan =
    if cache then begin
      (* Held across lookup+compile+insert so parallel shards sharing
         the cache compile each shape exactly once — keeping plan
         hit/miss totals identical to a sequential run. *)
      Mutex.lock db.plan_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock db.plan_lock)
        (fun () ->
          match Hashtbl.find_opt db.plan_cache key with
          | Some plan ->
            db.counters.plan_hits <- db.counters.plan_hits + 1;
            (* Stamp how current the data was when the plan last served
               a hit — rendered by EXPLAIN ANALYZE as the drift window
               against [compiled_version]. *)
            Plan.note_seen plan ~version:(Atomic.get db.version);
            plan
          | None ->
            db.counters.plan_misses <- db.counters.plan_misses + 1;
            let plan =
              Plan.compile
                ~version:(Atomic.get db.version)
                (relation_opt db) ~key shape
            in
            Hashtbl.add db.plan_cache key plan;
            plan)
    end
    else begin
      db.counters.plan_misses <- db.counters.plan_misses + 1;
      Plan.compile ~version:(Atomic.get db.version) (relation_opt db) ~key
        shape
    end
  in
  (plan, binding)

let plan_cache_size db = Hashtbl.length db.plan_cache

(* Snapshot of the plan cache for EXPLAIN ANALYZE, key-sorted so the
   rendering order is deterministic.  Taken under the plan lock: the
   executor's shards may be compiling concurrently. *)
let cached_plans db =
  Mutex.lock db.plan_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock db.plan_lock)
    (fun () ->
      Hashtbl.fold (fun key plan acc -> (key, plan) :: acc) db.plan_cache []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let counters db = db.counters

let snapshot_counters db = Counters.copy db.counters

let reset_counters db = Counters.reset db.counters

let count_probe db =
  db.counters.probes <- db.counters.probes + 1;
  if db.probe_latency > 0.0 then
    (* A true blocking sleep, not a busy-wait: the emulated round trip
       must release the core so that concurrent shards overlap their
       in-flight probes the way the paper's client-server setup does. *)
    Unix.sleepf db.probe_latency

let warm_indexes db = List.iter Relation.warm_indexes (relations db)

let set_probe_latency db seconds =
  if seconds < 0.0 then invalid_arg "Database.set_probe_latency: negative";
  db.probe_latency <- seconds

let probe_latency db = db.probe_latency

let set_guard db g = db.guard <- g

let guard db = db.guard

let probes db = db.counters.probes

let reset_probes db = reset_counters db

let pp ppf db =
  Format.fprintf ppf "@[<v>database (%d probes issued)" db.counters.probes;
  List.iter
    (fun r ->
      Format.fprintf ppf "@,  %a: %d tuples" Schema.pp (Relation.schema r)
        (Relation.cardinal r))
    (relations db);
  Format.fprintf ppf "@]"
