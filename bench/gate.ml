(* Bench regression gate.

   Compares a fresh `entangle-bench --json` dump against the committed
   baseline (BENCH_eval.json).  Three column families are enforced, by
   median over each series' rows:

   - timing columns (`_ms`/`_us`/`_ns` suffix): fail when the fresh
     median got more than --tolerance slower than the baseline.
     Columns whose baseline median is below a per-unit noise floor are
     skipped — sub-millisecond medians regress by scheduler jitter
     alone.
   - speedup columns (`_speedup` suffix — deliberately not the bare
     `speedup` of the parallel-scaling series, which depends on the
     machine's core count): fail when the fresh median drops below an
     absolute floor (--speedup-floor, default 3.0).  An absolute floor
     rather than a baseline ratio: these are committed acceptance
     ratios (the columnar storage engine must stay >= 3x the row
     store) and ratios of two timings are far more portable across
     machines than either timing, but not so stable that losing a lead
     over an unusually good baseline run should fail CI.
   - allocation columns (`minor_words_per_probe` suffix): fail when
     the fresh median exceeds the baseline by more than --alloc-slack
     words (default 0.5).  Allocation counts are exact and
     deterministic, so the slack only absorbs measurement boxing
     amortized across the probe loop; a single boxed value per probe
     (2-3 words) is a real regression and fails.
   - overhead columns (`overhead_ratio` suffix): fail when the fresh
     median exceeds an absolute cap (--overhead-cap, default 1.05).
     These are armed-vs-disarmed ratios of the always-on telemetry
     (metrics registry, flight recorder): the observability layer's
     committed promise is <5% on hot paths, and like the speedup
     floors a ratio of two same-machine timings ports across hardware
     where raw timings do not.

   - WAL overhead columns (`wal_overhead_x` suffix): fail when the
     fresh median exceeds an absolute cap (--wal-overhead-cap, default
     3.0).  The durability ablation commits the page-cache-bound ratio
     of a journaling submit stream over the plain engine (fsync-bound
     variants are reported but deliberately not gated — their cost is
     the disk's); like the other ratio families it ports across
     machines where raw timings do not.

   - service overhead columns (`service_overhead_x` suffix): fail when
     the fresh median exceeds an absolute cap (--service-overhead-cap,
     default 5.0).  The service ablation commits the ratio of a
     journaling submit stream over the plain one, both through the
     frame protocol; the cap is looser than the WAL cap because the
     journal rides on top of protocol cost here, and a socket round
     trip amplifies small absolute regressions into large ratios.

     gate.exe --baseline BENCH_eval.json --fresh bench.json [--tolerance 0.25]
       [--speedup-floor 3.0] [--alloc-slack 0.5] [--overhead-cap 1.05]
       [--wal-overhead-cap 3.0] [--service-overhead-cap 5.0]

   The parser below covers exactly the JSON Series.to_json emits
   (objects, arrays, numbers, strings); it is not a general-purpose
   JSON reader. *)

type json =
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'
        | Some '\\' -> Buffer.add_char b '\\'
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'u' ->
          (* \uXXXX: the emitter only writes these for control bytes;
             keep the raw escape, the gate never compares them. *)
          for _ = 1 to 4 do
            advance ()
          done
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (
        advance ();
        Obj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected , or } in object"
        in
        Obj (members [])
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (
        advance ();
        List [])
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        List (elements [])
    | Some ('0' .. '9' | '-') -> Num (parse_number ())
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------- Series access -------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let load path =
  match parse_json (read_file path) with
  | Obj series -> series
  | _ -> raise (Parse_error (path ^ ": top level is not an object"))

let strings = function
  | List vs ->
    List.map (function Str s -> s | Num f -> string_of_float f | _ -> "") vs
  | _ -> []

let columns_of = function
  | Obj fields -> (
    match List.assoc_opt "columns" fields with
    | Some c -> strings c
    | None -> [])
  | _ -> []

let rows_of = function
  | Obj fields -> (
    match List.assoc_opt "rows" fields with
    | Some (List rows) -> List.map (function List r -> r | _ -> []) rows
    | _ -> [])
  | _ -> []

(* The mean of the two middle values of an even-length column, so the
   number a two-row series is gated on does not depend on which of its
   rows happens to sort higher. *)
let median xs =
  let sorted = Array.of_list (List.sort compare xs) in
  let n = Array.length sorted in
  if n = 0 then None
  else if n mod 2 = 1 then Some sorted.(n / 2)
  else Some ((sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0)

let column_median series name =
  let columns = columns_of series in
  let idx = ref (-1) in
  List.iteri (fun i c -> if c = name then idx := i) columns;
  if !idx < 0 then None
  else
    rows_of series
    |> List.filter_map (fun row ->
           match List.nth_opt row !idx with Some (Num f) -> Some f | _ -> None)
    |> median

type rule =
  | Timing of float  (* noise floor in the column's own unit *)
  | Speedup          (* fresh median must stay above the absolute floor *)
  | Sharded_speedup  (* fresh median must stay above the sharded floor *)
  | Alloc            (* fresh median must stay within slack of baseline *)
  | Overhead         (* fresh median must stay below the absolute cap *)
  | Wal_overhead     (* fresh median must stay below the WAL cap *)
  | Service_overhead (* fresh median must stay below the service cap *)

(* Sub-noise-floor medians are skipped: a 25% "regression" of 40
   microseconds is scheduler jitter, not a slowdown.  The
   sharded_submit_speedup test must run before the generic _speedup
   suffix it also matches: the online engine's 4-domain throughput
   ratio has its own floor (--sharded-speedup-floor, default 2.5) —
   a whole-engine flush pipeline cannot match the storage engine's
   3x bar on a single core, but it must beat 2.5x or sharding is not
   pulling its weight. *)
let rule_of_column name =
  let suffixed s = String.length name >= String.length s
    && String.sub name (String.length name - String.length s) (String.length s) = s
  in
  if suffixed "minor_words_per_probe" then Some Alloc
  else if suffixed "service_overhead_x" then Some Service_overhead
  else if suffixed "wal_overhead_x" then Some Wal_overhead
  else if suffixed "overhead_ratio" then Some Overhead
  else if suffixed "sharded_submit_speedup" then Some Sharded_speedup
  else if suffixed "_speedup" then Some Speedup
  else if suffixed "_ms" then Some (Timing 1.0)
  else if suffixed "_us" then Some (Timing 1000.0)
  else if suffixed "_ns" then Some (Timing 1_000_000.0)
  else None

let () =
  let baseline_path = ref "BENCH_eval.json" in
  let fresh_path = ref "" in
  let tolerance = ref 0.25 in
  let speedup_floor = ref 3.0 in
  let sharded_speedup_floor = ref 2.5 in
  let alloc_slack = ref 0.5 in
  let overhead_cap = ref 1.05 in
  let wal_overhead_cap = ref 3.0 in
  let service_overhead_cap = ref 5.0 in
  let spec =
    [
      ("--baseline", Arg.Set_string baseline_path, "FILE  committed baseline");
      ("--fresh", Arg.Set_string fresh_path, "FILE  freshly generated dump");
      ("--tolerance", Arg.Set_float tolerance,
       "T  fail when median(fresh) > median(baseline) * (1+T)  (default 0.25)");
      ("--speedup-floor", Arg.Set_float speedup_floor,
       "S  fail when a *_speedup median drops below S  (default 3.0)");
      ("--sharded-speedup-floor", Arg.Set_float sharded_speedup_floor,
       "S  fail when a *sharded_submit_speedup median drops below S \
        (default 2.5)");
      ("--alloc-slack", Arg.Set_float alloc_slack,
       "W  fail when a *minor_words_per_probe median exceeds baseline + W \
        words  (default 0.5)");
      ("--overhead-cap", Arg.Set_float overhead_cap,
       "C  fail when an *overhead_ratio median exceeds C  (default 1.05)");
      ("--wal-overhead-cap", Arg.Set_float wal_overhead_cap,
       "C  fail when a *wal_overhead_x median exceeds C  (default 3.0)");
      ("--service-overhead-cap", Arg.Set_float service_overhead_cap,
       "C  fail when a *service_overhead_x median exceeds C  (default 5.0)");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gate.exe --baseline BENCH_eval.json --fresh bench.json [--tolerance T]";
  if !fresh_path = "" then (
    prerr_endline "gate.exe: --fresh is required";
    exit 2);
  let baseline = load !baseline_path and fresh = load !fresh_path in
  let failures = ref [] in
  let checked = ref 0 in
  List.iter
    (fun (name, base_series) ->
      match List.assoc_opt name fresh with
      | None ->
        failures := Printf.sprintf "%s: series missing from fresh run" name
                    :: !failures
      | Some fresh_series ->
        List.iter
          (fun col ->
            match rule_of_column col with
            | None -> ()
            | Some rule -> (
              match
                (column_median base_series col, column_median fresh_series col)
              with
              | None, _ | _, None -> ()
              | Some b, Some f -> (
                match rule with
                | Timing floor when b < floor ->
                  Printf.printf
                    "  %-32s %-30s base %12.3f  (below noise floor, skipped)\n"
                    name col b
                | Timing _ ->
                  incr checked;
                  let ratio = f /. b in
                  Printf.printf
                    "  %-32s %-30s base %12.3f  fresh %12.3f  %+6.1f%%\n" name
                    col b f ((ratio -. 1.0) *. 100.0);
                  if ratio > 1.0 +. !tolerance then
                    failures :=
                      Printf.sprintf
                        "%s.%s slowed down %.1f%% (median %.3f -> %.3f, \
                         tolerance %.0f%%)"
                        name col
                        ((ratio -. 1.0) *. 100.0)
                        b f (!tolerance *. 100.0)
                      :: !failures
                | Speedup ->
                  incr checked;
                  Printf.printf
                    "  %-32s %-30s base %12.2fx fresh %12.2fx (floor %.1fx)\n"
                    name col b f !speedup_floor;
                  if f < !speedup_floor then
                    failures :=
                      Printf.sprintf
                        "%s.%s speedup %.2fx is below the %.1fx floor \
                         (baseline %.2fx)"
                        name col f !speedup_floor b
                      :: !failures
                | Sharded_speedup ->
                  incr checked;
                  Printf.printf
                    "  %-32s %-30s base %12.2fx fresh %12.2fx (floor %.1fx)\n"
                    name col b f !sharded_speedup_floor;
                  if f < !sharded_speedup_floor then
                    failures :=
                      Printf.sprintf
                        "%s.%s sharded submit speedup %.2fx is below the \
                         %.1fx floor (baseline %.2fx): the online engine \
                         is no longer scaling across domains"
                        name col f !sharded_speedup_floor b
                      :: !failures
                | Alloc ->
                  incr checked;
                  Printf.printf
                    "  %-32s %-30s base %12.2f  fresh %12.2f  (slack %.1f \
                     words)\n"
                    name col b f !alloc_slack;
                  if f > b +. !alloc_slack then
                    failures :=
                      Printf.sprintf
                        "%s.%s allocates %.2f minor words per probe \
                         (baseline %.2f, slack %.1f): the probe path is no \
                         longer allocation-free"
                        name col f b !alloc_slack
                      :: !failures
                | Wal_overhead ->
                  incr checked;
                  Printf.printf
                    "  %-32s %-30s base %12.3fx fresh %12.3fx (cap %.2fx)\n"
                    name col b f !wal_overhead_cap;
                  if f > !wal_overhead_cap then
                    failures :=
                      Printf.sprintf
                        "%s.%s page-cache WAL overhead %.3fx exceeds the \
                         %.2fx cap (baseline %.3fx): journaling is taxing \
                         the submit path"
                        name col f !wal_overhead_cap b
                      :: !failures
                | Service_overhead ->
                  incr checked;
                  Printf.printf
                    "  %-32s %-30s base %12.3fx fresh %12.3fx (cap %.2fx)\n"
                    name col b f !service_overhead_cap;
                  if f > !service_overhead_cap then
                    failures :=
                      Printf.sprintf
                        "%s.%s journaled service overhead %.3fx exceeds the \
                         %.2fx cap (baseline %.3fx): the WAL is taxing the \
                         request path"
                        name col f !service_overhead_cap b
                      :: !failures
                | Overhead ->
                  incr checked;
                  Printf.printf
                    "  %-32s %-30s base %12.3fx fresh %12.3fx (cap %.2fx)\n"
                    name col b f !overhead_cap;
                  if f > !overhead_cap then
                    failures :=
                      Printf.sprintf
                        "%s.%s armed overhead %.3fx exceeds the %.2fx cap \
                         (baseline %.3fx): always-on telemetry is taxing the \
                         hot path"
                        name col f !overhead_cap b
                      :: !failures)))
          (columns_of base_series))
    baseline;
  Printf.printf "bench gate: %d column medians checked against %s\n" !checked
    !baseline_path;
  match List.rev !failures with
  | [] -> print_endline "bench gate: OK"
  | fs ->
    List.iter (fun f -> Printf.eprintf "bench gate: FAIL %s\n" f) fs;
    exit 1
