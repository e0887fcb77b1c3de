(* Benchmark driver.

   With no arguments, regenerates every figure of the paper's evaluation
   (Figures 4-8), runs the ablation studies, and finishes with quick
   Bechamel micro-benchmarks.  Individual pieces:

     dune exec bench/main.exe -- --figure 4
     dune exec bench/main.exe -- --ablation evaluator
     dune exec bench/main.exe -- --bechamel
     dune exec bench/main.exe -- --fast        (reduced sizes, for CI) *)

(* Every ablation under its --ablation name, with the reduced sizes
   --fast selects. *)
let ablations : (string * (fast:bool -> unit)) list =
  [
    ( "evaluator",
      fun ~fast ->
        if fast then Ablations.evaluator_batch ~rows:5_000 ~probes:300 ()
        else Ablations.evaluator_batch () );
    ( "preprocess",
      fun ~fast ->
        if fast then Ablations.preprocess ~rows:5_000 ~n:15 ()
        else Ablations.preprocess () );
    ( "selection",
      fun ~fast ->
        if fast then Ablations.selection ~rows:5_000 ~n:20 ()
        else Ablations.selection () );
    ( "minimize",
      fun ~fast ->
        if fast then Ablations.minimize ~rows:5_000 ~n:12 ()
        else Ablations.minimize () );
    ( "realistic",
      fun ~fast ->
        if fast then Ablations.realistic ~rows:100 ~users:20 ()
        else Ablations.realistic () );
    ( "parallel",
      fun ~fast ->
        if fast then Ablations.parallel ~rows:150 ~users:40 ()
        else Ablations.parallel () );
    ( "online",
      fun ~fast ->
        if fast then Ablations.online ~rows:5_000 ~n:20 ()
        else Ablations.online () );
    ( "online-scaling",
      fun ~fast ->
        if fast then
          Ablations.online_scaling ~rows:1_000 ~pools:[ 200; 1_000 ] ()
        else Ablations.online_scaling () );
    ( "parallel-scaling",
      fun ~fast ->
        if fast then Ablations.parallel_scaling ~rows:1_000 ()
        else Ablations.parallel_scaling () );
    ( "online-sharded",
      fun ~fast ->
        (* 100k pool even in fast mode: the sharded-throughput gate is
           only meaningful at the acceptance pool size. *)
        if fast then
          Ablations.online_sharded ~rows:1_000 ~pools:[ 100_000 ]
            ~domain_counts:[ 1; 2; 4 ] ()
        else Ablations.online_sharded () );
    ( "observability",
      fun ~fast ->
        if fast then
          Ablations.observability ~rows:5_000 ~n:15 ~repeats:13 ~iters:50 ()
        else Ablations.observability () );
    ( "resilience",
      fun ~fast ->
        if fast then Ablations.resilience ~rows:5_000 ~n:15 ~repeats:3 ()
        else Ablations.resilience () );
    ( "storage",
      fun ~fast ->
        (* 100k rows even in fast mode: the speedup and allocation gates
           are only meaningful at the acceptance workload size. *)
        if fast then Ablations.storage ~repeats:3 () else Ablations.storage () );
    ( "durability",
      fun ~fast ->
        if fast then Ablations.durability ~rows:1_000 ~pools:[ 200; 1_000 ] ()
        else Ablations.durability () );
    ( "service",
      fun ~fast ->
        if fast then
          Ablations.service ~rows:1_000 ~requests:256 ~clients:[ 1; 8 ] ()
        else Ablations.service () );
  ]

let ablation_names = String.concat "|" (List.map fst ablations)

let usage =
  Printf.sprintf
    "main.exe [--fast] [--figure N]... [--ablation %s]... [--bechamel] \
     [--figures-only] [--json FILE]"
    ablation_names

(* A mistyped name must not pass as a run that did nothing. *)
let refuse fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let () =
  let figures = ref [] in
  let requested = ref [] in
  let bechamel_only = ref false in
  let figures_only = ref false in
  let fast = ref false in
  let json_path = ref None in
  let spec =
    [
      ("--figure", Arg.Int (fun n -> figures := n :: !figures),
       "N  run only figure N (4..8); repeatable");
      ("--ablation", Arg.String (fun s -> requested := s :: !requested),
       "NAME  run only this ablation (" ^ ablation_names ^ "); repeatable");
      ("--bechamel", Arg.Set bechamel_only, " run only the micro-benchmarks");
      ("--figures-only", Arg.Set figures_only, " skip ablations and bechamel");
      ("--fast", Arg.Set fast, " reduced sizes (CI-friendly)");
      ("--csv", Arg.String (fun d -> Figures.csv_dir := Some d),
       "DIR  also write each figure's series to DIR/fig<N>.csv");
      ("--json", Arg.String (fun f -> json_path := Some f),
       "FILE  write every figure/ablation series run as one JSON file");
      ("--probe-latency-ms",
       Arg.Float (fun x -> Figures.probe_latency_s := x /. 1000.0),
       "MS  emulate a per-probe client-server round trip of MS \
        milliseconds (the paper's MySQL/JDBC regime)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (* Metrics stay on for the whole run: the histograms feed each
     figure's probe-latency percentiles in `--json` output.  The
     `observability` ablation toggles this itself to measure overhead. *)
  Obs.set_metrics true;
  let fast = !fast in
  List.iter
    (fun n ->
      if not (List.mem_assoc n Figures.figures) then
        refuse "no figure %d (the paper has figures 4-8)" n)
    !figures;
  List.iter
    (fun name ->
      if not (List.mem_assoc name ablations) then
        refuse "unknown ablation %s (valid: %s)" name
          (String.concat ", " (List.map fst ablations)))
    !requested;
  let ran_something = ref false in
  List.iter
    (fun n ->
      ran_something := true;
      (List.assoc n Figures.figures) ~fast)
    (List.rev !figures);
  List.iter
    (fun name ->
      ran_something := true;
      (List.assoc name ablations) ~fast)
    (List.rev !requested);
  if !bechamel_only then begin
    ran_something := true;
    Micro.run_all ()
  end;
  if not !ran_something then begin
    Figures.run_all ~fast ();
    if not !figures_only then begin
      List.iter (fun (_, run) -> run ~fast) ablations;
      Micro.run_all ()
    end
  end;
  Option.iter Series.write_json !json_path
