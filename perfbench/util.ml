(* Small helpers shared by every workload: clocks, order statistics,
   seeded samplers, process and file handling. *)

let now_ns () = Obs.now_ns ()
let since_us t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e3
let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9
let us_of_ns ns = Int64.to_float ns /. 1e3

(* Linear interpolation between closest ranks (numpy's default), so a
   median of an even sample is the mean of the two middle values. *)
let percentile values q =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median values = percentile values 0.5

(* Robust figures on a noisy shared host: the phase is cut into
   [segments] equal spans of time, the statistic is taken in each, and
   the median of those is reported, so a disturbance confined to a
   minority of spans does not move it. *)
let segment_median ~t0 ~duration_ns ~segments stat samples =
  let buckets = Array.make segments [] in
  List.iter
    (fun (t, v) ->
      let k = Int64.to_int (Int64.div (Int64.mul (Int64.sub t t0) (Int64.of_int segments)) duration_ns) in
      let k = max 0 (min (segments - 1) k) in
      buckets.(k) <- v :: buckets.(k))
    samples;
  median (List.filter_map (fun b -> if b = [] then None else Some (stat b)) (Array.to_list buckets))

(* Rate over [segments] consecutive equal shares of the events: each
   share's count over the time it took, median over shares.  Splitting
   by count rather than by clock keeps bursty completions from
   quantising the rate. *)
let segment_rate ~t0 ~segments times =
  let a = Array.of_list times in
  Array.sort compare a;
  let n = Array.length a in
  List.init segments (fun j ->
      let lo = j * n / segments and hi = (j + 1) * n / segments in
      let start = if lo = 0 then t0 else a.(lo - 1) in
      let dt = if hi > lo then Int64.to_float (Int64.sub a.(hi - 1) start) /. 1e9 else 0.0 in
      if dt > 0.0 then Some (float_of_int (hi - lo) /. dt) else None)
  |> List.filter_map Fun.id |> median

let sum values = List.fold_left ( +. ) 0.0 values

let mean values =
  match values with [] -> 0.0 | _ -> sum values /. float_of_int (List.length values)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Exponential inter-arrival gap (seconds) for a Poisson stream. *)
let exp_gap rng rate = -.log (1.0 -. Prng.float rng) /. rate

(* Zipf sampler over [0, n) with exponent [s]: rank 0 is the most
   popular. *)
let zipf n s =
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun k x ->
      acc := !acc +. (x /. total);
      cdf.(k) <- !acc)
    w;
  fun rng ->
    let u = Prng.float rng in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then find (mid + 1) hi else find lo mid
    in
    find 0 (n - 1)

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Everything a run writes lives under this directory of the checkout
   (it is git-ignored). *)
let work_dir = ".perfbench-run"

let make_work_dir () =
  try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Reads to EOF: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Peak resident set of a live process, from /proc (Linux). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> 0.0
  | s ->
    let lines = String.split_on_char '\n' s in
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0.0 lines

(* The machine's CPU time in clock ticks since boot, as (steal, total),
   from the first line of /proc/stat (Linux; (0, 0) elsewhere).  Steal
   is time the hypervisor gave to other guests while this one was
   runnable. *)
let cpu_ticks () =
  match read_file "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | s -> (
    let first = List.hd (String.split_on_char '\n' s) in
    match List.filter_map int_of_string_opt (String.split_on_char ' ' first) with
    | (user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _) ->
      (* The guest columns that follow are already part of user. *)
      (steal, user + nice + system + idle + iowait + irq + softirq + steal)
    | _ -> (0, 0))

let steal_share (s0, t0) (s1, t1) = if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0

(* First line of a command's output, or [None] when it fails. *)
let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> None
    | exception Unix.Unix_error _ -> None)

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Busy-loop at the lowest priority until killed (Serve.start_spinners),
   or until the parent is gone, so that no loop outlives its run. *)
let idle_spin () =
  ignore (Unix.nice 19);
  let parent = Unix.getppid () in
  let n = ref 0 in
  while Unix.getppid () = parent do
    for _ = 1 to 1_000_000 do
      incr n
    done
  done;
  exit 0

(* SIGKILL and reap: the crash the restart metric measures from. *)
let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid_retry pid)
