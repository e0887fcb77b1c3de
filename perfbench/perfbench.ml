(* Entry point of the repository benchmark.  run.py builds this and the
   entangle CLI, then runs

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   from the root of a checkout.  The last line of standard output is
   the JSON result; the exit code is 0 only when every check held. *)

let usage = "perfbench.exe --workload serve-pairs|serve-market|batch-paper --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let cold = ref false and spin = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--cold-start", Arg.Set cold, " internal: batch-paper restart probe");
      ("--idle-spin", Arg.Set spin, " internal: lowest-priority busy loop (serve open loop)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !cold then Paper.cold_start ();
  if !spin then Util.idle_spin ();
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  Util.make_work_dir ();
  let o = Report.outcome () in
  let flags, run =
    match !workload with
    | "batch-paper" -> ("in-process, no server", Paper.run)
    | "serve-pairs" -> (String.concat " " (Serve.flags Serve.Pairs), Serve.run Serve.Pairs)
    | "serve-market" -> (String.concat " " (Serve.flags Serve.Market), Serve.run Serve.Market)
    | w ->
      Printf.eprintf "unknown workload %S\n%s\n" w usage;
      exit 2
  in
  let values = run ~seed:!seed ~seconds:!seconds ~trace o in
  let extras, values = List.partition (fun (k, _) -> String.starts_with ~prefix:"extra." k) values in
  let stamp =
    Report.stamp ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:(if trace then 1 else 0) ~flags
  in
  let names = Report.declared (if trace then "per_layer" else "end_to_end") in
  if not trace then
    List.iter
      (fun (n, _) -> Report.check o (List.mem_assoc n values) ("no value for end-to-end metric " ^ n))
      names;
  let extras = List.map (fun (k, v) -> (k, Server.Json.Float v)) extras in
  let tag = Printf.sprintf "%s-seed%d" !workload !seed in
  if trace then Span.write (Filename.concat Util.work_dir ("spans-" ^ tag ^ ".jsonl"));
  let name = Printf.sprintf "%s-trace%d.json" tag (if trace then 1 else 0) in
  let correct = Report.emit ~name ~stamp ~names ~values ~extras o in
  exit (if correct then 0 else 1)
