(* Result records: the metric sets BENCHMARK.json declares, the run
   stamp, and the one-line JSON result printed last. *)

module J = Server.Json

(* The (name, unit) pairs BENCHMARK.json declares under [key]
   ("end_to_end" or "per_layer"), read from the root of the checkout so
   this program and the declaration cannot drift apart. *)
let declared key =
  let bad why = failwith ("BENCHMARK.json: " ^ why) in
  match J.parse (Util.read_file "BENCHMARK.json") with
  | Error why -> bad why
  | Ok json -> (
    match J.mem key json with
    | Some (J.Arr items) ->
      List.map
        (fun m ->
          match (J.str_mem "name" m, J.str_mem "unit" m) with
          | Some n, Some u -> (n, u)
          | _ -> bad ("metric without name or unit under " ^ key))
        items
    | _ -> bad ("no " ^ key ^ " list"))

(* Counters that repeat exactly for a fixed seed.  The traced run
   replays the seeded request stream in a fixed order on one thread,
   so every count it makes is a function of the seed alone. *)
let exact_counts =
  [
    "online.inventory_conflicts";
    "online.pending_peak";
    "online_sharded.migrations";
    "scc_algo.candidates";
    "consistent.cleaning_rounds";
    "relational.probes";
    "relational.tuples_scanned";
    "relational.plan_hits";
    "relational.plan_misses";
    "durable.fsyncs";
    "durable.wal_bytes";
    "durable.snapshots";
  ]

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed checks, newest first *)
}

let outcome () = { attempted = 0; failed = 0; problems = [] }

let attempt o = o.attempted <- o.attempted + 1

let fail o why =
  o.failed <- o.failed + 1;
  if List.length o.problems < 20 then o.problems <- why :: o.problems

(* A correctness check: counted as one attempted operation, and as a
   failure when it does not hold. *)
let check o ok why =
  attempt o;
  if not ok then fail o why

let ok_share o =
  if o.attempted = 0 then 0.0
  else 1.0 -. (float_of_int o.failed /. float_of_int o.attempted)

let source_digest () =
  (* The checkout the benchmark runs in is not a git repository; a
     digest of the sources identifies the code instead. *)
  let files = ref [] in
  let rec walk d =
    Array.iter
      (fun f ->
        let p = Filename.concat d f in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
        then files := p :: !files)
      (try Sys.readdir d with Sys_error _ -> [||])
  in
  List.iter walk [ "lib"; "bin"; "perfbench" ];
  let sorted = List.sort compare !files in
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (fun p -> p ^ Digest.file p) sorted)))

let stamp ~workload ~seed ~seconds ~trace ~flags =
  J.Obj
    [
      ("workload", J.Str workload);
      ("seed", J.Int seed);
      ("seconds", J.Int seconds);
      ("trace", J.Int trace);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ( "git_commit",
        J.Str
          (Option.value ~default:"unknown (not a git checkout)"
             (Util.command_line "git rev-parse HEAD")) );
      ("source_digest", J.Str (source_digest ()));
      ("server_flags", J.Str flags);
    ]

(* A per-layer metric the workload did not produce is a layer it
   bypasses, reported as 0. *)
let metrics_json names values =
  J.Obj
    (List.map
       (fun (name, unit) ->
         let v = match List.assoc_opt name values with Some v when Float.is_finite v -> v | _ -> 0.0 in
         (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
       names)

(* Print the run record (stamp, extras, failed checks) on its own line
   and to [Util.work_dir]/[name], then the result as the last line. *)
let emit ~name ~stamp ~names ~values ~extras o =
  let correct = o.failed = 0 && o.attempted > 0 in
  let result =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int (max 1 o.attempted));
        ("failed", J.Int o.failed);
        ("metrics", metrics_json names values);
      ]
  in
  let record =
    J.Obj
      [
        ("stamp", stamp);
        ("extras", J.Obj extras);
        ("problems", J.Arr (List.rev_map (fun p -> J.Str p) o.problems));
        ("exact_counts", J.Arr (List.map (fun n -> J.Str n) exact_counts));
        ("result", result);
      ]
  in
  (try Util.write_file (Filename.concat Util.work_dir name) (J.to_string record ^ "\n")
   with Sys_error _ -> ());
  List.iter (fun p -> Printf.eprintf "check failed: %s\n" p) (List.rev o.problems);
  print_endline (J.to_string record);
  print_endline (J.to_string result);
  correct
