(* Conjunctive-query evaluation: unit cases plus randomized agreement
   with the naive reference evaluator. *)

open Relational
open Helpers

let q atoms = Cq.make atoms

let test_single_atom () =
  let db = flights_db () in
  let query = q [ atom "F" [ var "x"; cs "Zurich" ] ] in
  match Eval.find_first db query with
  | None -> Alcotest.fail "expected a result"
  | Some b ->
    let fid = Eval.Binding.find "x" b in
    Alcotest.(check bool) "zurich flight" true
      (Value.equal fid (vi 101) || Value.equal fid (vi 102))

let test_join () =
  let db = flights_db () in
  (* Destination with both a flight and a hotel. *)
  let query =
    q [ atom "F" [ var "f"; var "d" ]; atom "H" [ var "h"; var "d" ] ]
  in
  let results = Eval.find_all db query in
  (* Zurich: 2 flights x 1 hotel; Paris: 1 x 1; Athens: 1 x 1 = 4. *)
  Alcotest.(check int) "join size" 4 (List.length results);
  List.iter
    (fun b ->
      let d = Eval.Binding.find "d" b in
      Alcotest.(check bool) "dest consistent" true
        (List.exists (Value.equal d) [ vs "Zurich"; vs "Paris"; vs "Athens" ]))
    results

let test_unsatisfiable () =
  let db = flights_db () in
  Alcotest.(check bool) "no Rome" false
    (Eval.satisfiable db (q [ atom "F" [ var "x"; cs "Rome" ] ]))

let test_empty_query () =
  let db = flights_db () in
  match Eval.find_first db (q []) with
  | Some b -> Alcotest.(check int) "empty binding" 0 (Eval.Binding.cardinal b)
  | None -> Alcotest.fail "empty query must succeed"

let test_repeated_variable () =
  let db = Database.create () in
  ignore (Database.create_table' db "E" [ "a"; "b" ]);
  Database.insert db "E" [ vi 1; vi 2 ];
  Database.insert db "E" [ vi 3; vi 3 ];
  let results = Eval.find_all db (q [ atom "E" [ var "x"; var "x" ] ]) in
  Alcotest.(check int) "diagonal only" 1 (List.length results);
  Alcotest.check value_t "bound to 3" (vi 3)
    (Eval.Binding.find "x" (List.hd results))

let test_limit () =
  let db = flights_db () in
  let results = Eval.find_all ~limit:1 db (q [ atom "F" [ var "x"; var "y" ] ]) in
  Alcotest.(check int) "limit respected" 1 (List.length results)

let test_count () =
  let db = flights_db () in
  Alcotest.(check int) "count flights" 4
    (Eval.count db (q [ atom "F" [ var "x"; var "y" ] ]))

(* An empty relation ahead of the bad atom: an evaluator that resolves
   atoms lazily, during enumeration, would return no answers instead of
   raising. *)
let with_empty_relation () =
  let db = flights_db () in
  ignore (Database.create_table' db "E" [ "a" ]);
  db

let test_unknown_relation () =
  let db = flights_db () in
  Alcotest.check_raises "unknown" (Eval.Unknown_relation "Nope") (fun () ->
      ignore (Eval.find_first db (q [ atom "Nope" [ var "x" ] ])));
  let db = with_empty_relation () in
  let query = q [ atom "E" [ var "x" ]; atom "Nope" [ var "y" ] ] in
  Alcotest.check_raises "unknown after empty" (Eval.Unknown_relation "Nope")
    (fun () -> ignore (Eval.find_all db query));
  Alcotest.check_raises "naive: unknown after empty"
    (Eval.Unknown_relation "Nope") (fun () ->
      ignore (Eval.Naive.find_all db query))

let test_arity_mismatch () =
  let db = flights_db () in
  Alcotest.check_raises "arity" (Eval.Arity_mismatch ("F", 1, 2)) (fun () ->
      ignore (Eval.find_first db (q [ atom "F" [ var "x" ] ])));
  let db = with_empty_relation () in
  let query = q [ atom "E" [ var "x" ]; atom "F" [ var "y" ] ] in
  Alcotest.check_raises "arity after empty" (Eval.Arity_mismatch ("F", 1, 2))
    (fun () -> ignore (Eval.find_all db query));
  Alcotest.check_raises "naive: arity after empty"
    (Eval.Arity_mismatch ("F", 1, 2)) (fun () ->
      ignore (Eval.Naive.find_all db query))

let test_probe_counting () =
  let db = flights_db () in
  Database.reset_probes db;
  ignore (Eval.find_first db (q [ atom "F" [ var "x"; var "y" ] ]));
  ignore (Eval.find_all db (q [ atom "F" [ var "x"; var "y" ] ]));
  ignore (Eval.satisfiable db (q [ atom "F" [ var "x"; var "y" ] ]));
  Alcotest.(check int) "three probes" 3 (Database.probes db)

let test_distinct_projections () =
  let db = flights_db () in
  let s =
    Eval.distinct_projections db (q [ atom "F" [ var "x"; var "d" ] ]) [ "d" ]
  in
  Alcotest.(check int) "three destinations" 3 (Tuple.Set.cardinal s);
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Eval.distinct_projections: zz not in query") (fun () ->
      ignore (Eval.distinct_projections db (q [ atom "F" [ var "x"; var "d" ] ]) [ "zz" ]))

let test_check_ground () =
  let db = flights_db () in
  Alcotest.(check bool) "present" true
    (Eval.check_ground db (q [ atom "F" [ ci 101; cs "Zurich" ] ]));
  Alcotest.(check bool) "absent" false
    (Eval.check_ground db (q [ atom "F" [ ci 101; cs "Paris" ] ]))

(* Randomized agreement with the naive evaluator on small instances. *)

let gen_instance =
  QCheck.Gen.(
    let* nr = int_range 1 6 in
    let* ns = int_range 0 6 in
    let* r_rows = list_size (return nr) (pair (int_range 0 3) (int_range 0 3)) in
    let* s_rows = list_size (return ns) (int_range 0 3) in
    let gen_term =
      oneof
        [
          map (fun i -> Term.Var (Printf.sprintf "v%d" i)) (int_range 0 3);
          map Term.int (int_range 0 3);
        ]
    in
    let gen_atom =
      oneof
        [
          map (fun (a, b) -> { Cq.rel = "R"; args = [| a; b |] }) (pair gen_term gen_term);
          map (fun a -> { Cq.rel = "S"; args = [| a |] }) gen_term;
        ]
    in
    let* atoms = list_size (int_range 1 4) gen_atom in
    return (r_rows, s_rows, atoms))

let build_instance (r_rows, s_rows, atoms) =
  let db = Database.create () in
  ignore (Database.create_table' db "R" [ "a"; "b" ]);
  ignore (Database.create_table' db "S" [ "a" ]);
  List.iter (fun (a, b) -> Database.insert db "R" [ vi a; vi b ]) r_rows;
  List.iter (fun a -> Database.insert db "S" [ vi a ]) s_rows;
  (db, Cq.make atoms)

let valuations_equal l1 l2 =
  let norm l = List.sort_uniq (Eval.Binding.compare Value.compare) l in
  List.equal (fun a b -> Eval.Binding.compare Value.compare a b = 0) (norm l1)
    (norm l2)

let instance_arb =
  QCheck.make
    ~print:(fun (_, _, atoms) -> Format.asprintf "%a" Cq.pp (Cq.make atoms))
    gen_instance

let suite =
  [
    Alcotest.test_case "single atom" `Quick test_single_atom;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "unsatisfiable" `Quick test_unsatisfiable;
    Alcotest.test_case "empty query" `Quick test_empty_query;
    Alcotest.test_case "repeated variable" `Quick test_repeated_variable;
    Alcotest.test_case "limit" `Quick test_limit;
    Alcotest.test_case "count" `Quick test_count;
    Alcotest.test_case "unknown relation" `Quick test_unknown_relation;
    Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "probe counting" `Quick test_probe_counting;
    Alcotest.test_case "distinct projections" `Quick test_distinct_projections;
    Alcotest.test_case "check ground" `Quick test_check_ground;
    qtest ~count:300 "backtracking join = naive semantics" instance_arb
      (fun inst ->
        let db, query = build_instance inst in
        let naive = Eval.Naive.find_all db query in
        valuations_equal naive (Eval.find_all db query)
        && valuations_equal naive (Eval.find_all ~cache:false db query));
    qtest ~count:200 "find_first consistent with find_all" instance_arb
      (fun inst ->
        let db, query = build_instance inst in
        match (Eval.find_first db query, Eval.find_all db query) with
        | None, [] -> true
        | Some _, _ :: _ -> true
        | _ -> false);
    qtest ~count:200 "count = length find_all" instance_arb (fun inst ->
        let db, query = build_instance inst in
        Eval.count db query = List.length (Eval.find_all db query));
  ]
