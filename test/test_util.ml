(* Tests for Namer_util: subtoken splitting, edit distance, PRNG, counters,
   statistics, interner and table formatting. *)

open Namer_util

let check_sl = Alcotest.(check (list string))
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ---------------- Subtoken ---------------- *)

let test_split_camel () =
  check_sl "camelCase" [ "assert"; "True" ] (Subtoken.split "assertTrue");
  check_sl "lower camel" [ "rotate"; "Angle" ] (Subtoken.split "rotateAngle");
  check_sl "pascal" [ "Test"; "Picture" ] (Subtoken.split "TestPicture")

let test_split_snake () =
  check_sl "snake" [ "rotated"; "picture"; "name" ] (Subtoken.split "rotated_picture_name");
  check_sl "leading underscore" [ "fullpath" ] (Subtoken.split "_fullpath");
  check_sl "double underscore" [ "init" ] (Subtoken.split "__init__")

let test_split_mixed () =
  check_sl "acronym run" [ "HTTP"; "Server" ] (Subtoken.split "HTTPServer");
  check_sl "digits" [ "utf"; "8"; "decode" ] (Subtoken.split "utf8_decode");
  check_sl "screaming" [ "MAX"; "VALUE" ] (Subtoken.split "MAX_VALUE");
  check_sl "single" [ "x" ] (Subtoken.split "x");
  check_sl "empty" [] (Subtoken.split "");
  check_sl "separators only" [] (Subtoken.split "__");
  let name = "picture" in
  check_bool "one subtoken is the input itself" true
    (match Subtoken.split name with [ s ] -> s == name | _ -> false)

let test_detect_style () =
  let open Subtoken in
  check_bool "snake" true (detect_style "foo_bar" = Snake);
  check_bool "camel" true (detect_style "fooBar" = Camel);
  check_bool "pascal" true (detect_style "FooBar" = Pascal);
  check_bool "screaming" true (detect_style "FOO_BAR" = Screaming);
  check_bool "flat" true (detect_style "foobar" = Flat)

let test_join () =
  let open Subtoken in
  check_str "snake" "foo_bar" (join Snake [ "foo"; "Bar" ]);
  check_str "camel" "fooBar" (join Camel [ "foo"; "bar" ]);
  check_str "pascal" "FooBar" (join Pascal [ "foo"; "bar" ]);
  check_str "screaming" "FOO_BAR" (join Screaming [ "foo"; "bar" ])

let test_replace_subtoken () =
  check_str "camel fix" "assertEqual"
    (Subtoken.replace_subtoken "assertTrue" ~index:1 ~with_:"Equal");
  check_str "snake fix" "picture_name"
    (Subtoken.replace_subtoken "picture_nmae" ~index:1 ~with_:"name");
  check_str "out of range" "foo" (Subtoken.replace_subtoken "foo" ~index:5 ~with_:"x")

let prop_split_round_trip =
  (* joining split subtokens in the detected style preserves the lowercase
     canonical form *)
  QCheck.Test.make ~name:"subtoken: canonical form stable under re-join" ~count:200
    (QCheck.string_gen_of_size (QCheck.Gen.return 8) (QCheck.Gen.oneofl [ 'a'; 'B'; 'c'; '_'; 'd' ]))
    (fun s ->
      QCheck.assume (Subtoken.split s <> []);
      let style = Subtoken.detect_style s in
      let joined = Subtoken.join style (Subtoken.split s) in
      Subtoken.split_lower joined = Subtoken.split_lower s)

let prop_split_matches_reference =
  QCheck.Test.make ~name:"subtoken: split = buffer-based reference" ~count:1000
    (QCheck.string_gen_of_size (QCheck.Gen.int_range 0 12)
       (QCheck.Gen.oneofl
          (List.of_seq
             (String.to_seq
                "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$"))))
    (fun s -> Subtoken.split s = Ref_subtoken.split s)

(* ---------------- Edit distance ---------------- *)

let test_levenshtein () =
  check_int "identical" 0 (Edit_distance.levenshtein "port" "port");
  check_int "kitten" 3 (Edit_distance.levenshtein "kitten" "sitting");
  check_int "empty" 4 (Edit_distance.levenshtein "" "port");
  check_int "substitution" 1 (Edit_distance.levenshtein "cat" "cut")

let test_damerau () =
  check_int "transposition is one edit" 1 (Edit_distance.damerau "port" "prot");
  check_int "levenshtein would say two" 2 (Edit_distance.levenshtein "port" "prot");
  check_int "typo por" 1 (Edit_distance.damerau "por" "port")

let test_similarity () =
  checkf "equal" 1.0 (Edit_distance.similarity "abc" "abc");
  checkf "disjoint" 0.0 (Edit_distance.similarity "abc" "xyz")

let prop_edit_symmetry =
  QCheck.Test.make ~name:"edit distance: symmetric" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 10)) (string_of_size (QCheck.Gen.int_bound 10)))
    (fun (a, b) ->
      Edit_distance.levenshtein a b = Edit_distance.levenshtein b a
      && Edit_distance.damerau a b = Edit_distance.damerau b a)

let prop_damerau_le_lev =
  QCheck.Test.make ~name:"edit distance: damerau ≤ levenshtein" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 10)) (string_of_size (QCheck.Gen.int_bound 10)))
    (fun (a, b) -> Edit_distance.damerau a b <= Edit_distance.levenshtein a b)

(* ---------------- Prng ---------------- *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 50 do
    check_int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let s1 = Prng.split a in
  let v1 = Prng.int s1 1_000_000 in
  (* a second run: drawing extra values from the split must not change the
     parent's next split *)
  let b = Prng.create 7 in
  let s1' = Prng.split b in
  ignore (Prng.int s1' 10);
  ignore (Prng.int s1' 10);
  let a2 = Prng.split a and b2 = Prng.split b in
  check_int "parent unaffected by child draws" (Prng.int a2 1_000_000) (Prng.int b2 1_000_000);
  check_bool "child deterministic" true (v1 >= 0)

let prop_prng_int_range =
  QCheck.Test.make ~name:"prng: int in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let p = Prng.create seed in
      let v = Prng.int p n in
      v >= 0 && v < n)

let prop_prng_shuffle_permutation =
  QCheck.Test.make ~name:"prng: shuffle is a permutation" ~count:100
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 0 30) int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      Prng.shuffle (Prng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let test_prng_weighted () =
  let p = Prng.create 3 in
  for _ = 1 to 100 do
    let v = Prng.weighted p [ (0.0, "never"); (1.0, "always") ] in
    check_str "zero-weight branch never drawn" "always" v
  done

let test_prng_sample () =
  let p = Prng.create 5 in
  let s = Prng.sample p 3 [ 1; 2; 3; 4; 5 ] in
  check_int "sample size" 3 (List.length s);
  check_int "no duplicates" 3 (List.length (List.sort_uniq compare s));
  check_int "sample more than available" 2 (List.length (Prng.sample p 10 [ 1; 2 ]))

let test_prng_gaussian () =
  let p = Prng.create 11 in
  let xs = List.init 2000 (fun _ -> Prng.gaussian p) in
  let m = Stats.mean xs and s = Stats.stddev xs in
  check_bool "mean near 0" true (abs_float m < 0.1);
  check_bool "stddev near 1" true (abs_float (s -. 1.0) < 0.1)

(* ---------------- Counter / Stats / Interner / Tablefmt ---------------- *)

let test_counter () =
  let c = Counter.of_list [ "a"; "b"; "a"; "a" ] in
  check_int "count a" 3 (Counter.count c "a");
  check_int "count missing" 0 (Counter.count c "z");
  check_int "total" 4 (Counter.total c);
  check_int "distinct" 2 (Counter.distinct c);
  (match Counter.top 1 c with
  | [ ("a", 3) ] -> ()
  | _ -> Alcotest.fail "top-1 should be a×3");
  let kept = Counter.filter_min c ~min_count:2 in
  check_int "filter_min keeps a only" 1 (List.length kept)

let test_stats_confusion () =
  let c =
    Stats.confusion
      ~predicted:[ true; true; false; false; true ]
      ~actual:[ true; false; false; true; true ]
  in
  checkf "accuracy" 0.6 (Stats.accuracy c);
  checkf "precision" (2.0 /. 3.0) (Stats.precision c);
  checkf "recall" (2.0 /. 3.0) (Stats.recall c);
  checkf "f1" (2.0 /. 3.0) (Stats.f1 c)

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "median" 3.0 (Stats.percentile 50.0 xs);
  checkf "min" 1.0 (Stats.percentile 0.0 xs);
  checkf "max" 5.0 (Stats.percentile 100.0 xs);
  (* out-of-range p is clamped instead of indexing out of bounds *)
  checkf "p above 100 clamps" 5.0 (Stats.percentile 250.0 xs);
  checkf "negative p clamps" 1.0 (Stats.percentile (-3.0) xs)

let test_stats_guards () =
  Alcotest.check_raises "percentile of empty"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile 50.0 []));
  let singleton_msg = "Stats.variance: need at least 2 samples (got 0 or 1)" in
  Alcotest.check_raises "variance of empty" (Invalid_argument singleton_msg)
    (fun () -> ignore (Stats.variance []));
  Alcotest.check_raises "variance of singleton" (Invalid_argument singleton_msg)
    (fun () -> ignore (Stats.variance [ 4.2 ]))

let test_interner () =
  let i = Interner.create () in
  let a = Interner.intern i "foo" and b = Interner.intern i "bar" in
  check_int "same string same id" a (Interner.intern i "foo");
  check_bool "distinct ids" true (a <> b);
  check_str "name round trip" "bar" (Interner.name i b);
  check_int "size" 2 (Interner.size i);
  check_bool "lookup known" true (Interner.lookup i "foo" = Some a);
  check_bool "lookup unknown" true (Interner.lookup i "baz" = None);
  Alcotest.check_raises "unknown id" (Invalid_argument "Interner.name: unknown id")
    (fun () -> ignore (Interner.name i 99))

let test_interner_growth () =
  let i = Interner.create () in
  for k = 0 to 999 do
    ignore (Interner.intern i (string_of_int k))
  done;
  check_int "dense ids" 1000 (Interner.size i);
  check_str "survives array growth" "512" (Interner.name i 512)

let test_interner_freeze () =
  let i = Interner.create () in
  let a = Interner.intern i "foo" in
  Interner.freeze i;
  check_bool "frozen" true (Interner.is_frozen i);
  check_int "known strings still intern" a (Interner.intern i "foo");
  check_bool "lookup works frozen" true (Interner.lookup i "foo" = Some a);
  Alcotest.check_raises "unknown string raises"
    (Invalid_argument "Interner.intern: frozen") (fun () ->
      ignore (Interner.intern i "baz"));
  Interner.freeze i;
  check_bool "freeze idempotent" true (Interner.is_frozen i);
  Interner.thaw i;
  check_bool "thawed" false (Interner.is_frozen i);
  let b = Interner.intern i "baz" in
  check_int "ids survive the cycle" a (Interner.intern i "foo");
  check_int "allocation resumes densely" (a + 1) b

let test_interner_remap () =
  let global = Interner.create () in
  ignore (Interner.intern global "x");
  ignore (Interner.intern global "y");
  let local = Interner.create () in
  ignore (Interner.intern local "y");
  ignore (Interner.intern local "z");
  let m = Interner.remap ~into:global local in
  check_int "translation length" (Interner.size local) (Array.length m);
  Array.iteri
    (fun id gid ->
      check_str "remap preserves names" (Interner.name local id) (Interner.name global gid))
    m;
  check_int "shared string keeps its global id" 1 m.(0);
  check_int "new string appended" 2 m.(1);
  check_int "global grew by the new strings only" 3 (Interner.size global)

let prop_interner_bijection =
  QCheck.Test.make ~name:"interner: first-seen-order bijection" ~count:200
    QCheck.(list (string_gen_of_size (Gen.int_range 0 6) Gen.printable))
    (fun strings ->
      let i = Interner.create () in
      let ids = List.map (Interner.intern i) strings in
      (* same string ⟺ same id *)
      List.for_all2
        (fun s id ->
          Interner.name i id = s
          && List.for_all2
               (fun s' id' -> s = s' = (id = id'))
               strings ids)
        strings ids
      (* ids are dense and in first-seen order *)
      && Interner.size i = List.length (List.sort_uniq compare strings)
      &&
      let seen = ref [] in
      List.for_all
        (fun id ->
          if List.mem id !seen then true
          else begin
            let expected = List.length !seen in
            seen := !seen @ [ id ];
            id = expected
          end)
        ids)

let test_tablefmt () =
  let s =
    Tablefmt.render ~caption:"Cap" ~header:[ "a"; "b" ]
      [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  check_bool "contains caption" true
    (String.length s > 3 && String.sub s 0 3 = "Cap");
  check_str "pct" "70%" (Tablefmt.pct 0.70);
  check_str "pct digits" "66.7%" (Tablefmt.pct ~digits:1 (2.0 /. 3.0))

let suite =
  [
    Alcotest.test_case "subtoken: camelCase" `Quick test_split_camel;
    Alcotest.test_case "subtoken: snake_case" `Quick test_split_snake;
    Alcotest.test_case "subtoken: mixed conventions" `Quick test_split_mixed;
    Alcotest.test_case "subtoken: style detection" `Quick test_detect_style;
    Alcotest.test_case "subtoken: join" `Quick test_join;
    Alcotest.test_case "subtoken: replace subtoken" `Quick test_replace_subtoken;
    QCheck_alcotest.to_alcotest prop_split_round_trip;
    QCheck_alcotest.to_alcotest prop_split_matches_reference;
    Alcotest.test_case "edit: levenshtein" `Quick test_levenshtein;
    Alcotest.test_case "edit: damerau transposition" `Quick test_damerau;
    Alcotest.test_case "edit: similarity" `Quick test_similarity;
    QCheck_alcotest.to_alcotest prop_edit_symmetry;
    QCheck_alcotest.to_alcotest prop_damerau_le_lev;
    Alcotest.test_case "prng: determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng: split independence" `Quick test_prng_split_independent;
    QCheck_alcotest.to_alcotest prop_prng_int_range;
    QCheck_alcotest.to_alcotest prop_prng_shuffle_permutation;
    Alcotest.test_case "prng: weighted" `Quick test_prng_weighted;
    Alcotest.test_case "prng: sample" `Quick test_prng_sample;
    Alcotest.test_case "prng: gaussian moments" `Quick test_prng_gaussian;
    Alcotest.test_case "counter: counts and top" `Quick test_counter;
    Alcotest.test_case "stats: confusion metrics" `Quick test_stats_confusion;
    Alcotest.test_case "stats: percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats: empty/singleton guards" `Quick test_stats_guards;
    Alcotest.test_case "interner: basics" `Quick test_interner;
    Alcotest.test_case "interner: growth" `Quick test_interner_growth;
    Alcotest.test_case "interner: freeze/thaw" `Quick test_interner_freeze;
    Alcotest.test_case "interner: remap merge" `Quick test_interner_remap;
    QCheck_alcotest.to_alcotest prop_interner_bijection;
    Alcotest.test_case "tablefmt: render" `Quick test_tablefmt;
  ]

(* ---------------- Json ---------------- *)

let test_json_scalars () =
  let open Json in
  check_str "null" "null" (to_string Null);
  check_str "bool" "true" (to_string (Bool true));
  check_str "int" "42" (to_string (Int 42));
  check_str "float" "1.5" (to_string (Float 1.5));
  check_str "string escape" "\"a\\\"b\\nc\"" (to_string (String "a\"b\nc"))

let test_json_compound () =
  let open Json in
  check_str "list" "[1,2]" (to_string (List [ Int 1; Int 2 ]));
  check_str "object" "{\"k\":\"v\"}" (to_string (Obj [ ("k", String "v") ]));
  check_str "empty" "{}" (to_string (Obj []));
  check_str "nested"
    "{\"xs\":[{\"a\":1}]}"
    (to_string (Obj [ ("xs", List [ Obj [ ("a", Int 1) ] ]) ]))

let test_json_indent () =
  let open Json in
  check_str "pretty" "{\n  \"a\": 1\n}" (to_string ~indent:2 (Obj [ ("a", Int 1) ]))

let test_json_parse () =
  let open Json in
  let ok s = match parse s with Ok v -> v | Error e -> Alcotest.fail e in
  check_bool "null" true (ok "null" = Null);
  check_bool "bools" true (ok " true " = Bool true && ok "false" = Bool false);
  check_bool "int" true (ok "42" = Int 42);
  check_bool "negative int" true (ok "-7" = Int (-7));
  check_bool "float" true (ok "1.5" = Float 1.5);
  check_bool "exponent" true (ok "2e3" = Float 2000.0);
  check_bool "string escapes" true (ok "\"a\\\"b\\nc\"" = String "a\"b\nc");
  check_bool "unicode escape" true (ok "\"\\u0041\"" = String "A");
  check_bool "empty containers" true (ok "[]" = List [] && ok "{}" = Obj []);
  check_bool "nested" true
    (ok "{\"xs\": [{\"a\": 1}, 2]}"
    = Obj [ ("xs", List [ Obj [ ("a", Int 1) ]; Int 2 ]) ]);
  List.iter
    (fun bad ->
      match parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "parse %S should fail" bad)
      | Error _ -> ())
    [ ""; "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "nul"; "1 2" ]

let test_json_parse_roundtrip () =
  let open Json in
  let v =
    Obj
      [
        ("counters", Obj [ ("files", Int 183); ("ratio", Float 0.25) ]);
        ("names", List [ String "parse"; String "scan" ]);
        ("ok", Bool true);
        ("nothing", Null);
      ]
  in
  (* compact and pretty renderings both parse back to the same value *)
  (match parse (to_string v) with
  | Ok v' -> check_bool "compact round trip" true (v = v')
  | Error e -> Alcotest.fail e);
  match parse (to_string ~indent:2 v) with
  | Ok v' -> check_bool "pretty round trip" true (v = v')
  | Error e -> Alcotest.fail e

let json_suite =
  [
    Alcotest.test_case "json: scalars" `Quick test_json_scalars;
    Alcotest.test_case "json: compound" `Quick test_json_compound;
    Alcotest.test_case "json: indentation" `Quick test_json_indent;
    Alcotest.test_case "json: parse" `Quick test_json_parse;
    Alcotest.test_case "json: parse round trip" `Quick test_json_parse_roundtrip;
  ]

(* mkdir_p: parents made, an existing directory accepted, anything else
   raised *)
let test_fs_mkdir_p () =
  let root = Filename.temp_file "namer_fs" "" in
  Sys.remove root;
  let nested = Filename.concat (Filename.concat root "a") "b" in
  Namer_util.Fs.mkdir_p nested;
  Alcotest.(check bool) "nested directory made" true (Sys.is_directory nested);
  Namer_util.Fs.mkdir_p nested;
  let file = Filename.concat root "file" in
  close_out (open_out file);
  Alcotest.(check bool) "a file in the way raises" true
    (match Namer_util.Fs.mkdir_p (Filename.concat file "c") with
    | () -> false
    | exception Sys_error _ -> true);
  Alcotest.(check bool) "a file at the path raises" true
    (match Namer_util.Fs.mkdir_p file with () -> false | exception Sys_error _ -> true);
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root)))

(* walk: a tree whose entries were made in reverse name order still lists
   in name order, nested files in their directory's place, and only files
   with the suffix — a directory named like a source file is descended *)
let test_fs_walk () =
  let root = Filename.temp_file "namer_walk" "" in
  Sys.remove root;
  let touch rel =
    let path = Filename.concat root rel in
    Namer_util.Fs.mkdir_p (Filename.dirname path);
    close_out (open_out path)
  in
  List.iter touch
    [ "z.py"; "y/b.py"; "y/a.txt"; "q.py/r.py"; "m.py"; "b/d/e.py"; "b/c.py"; "a.pyc"; "a.py" ];
  Alcotest.(check (list string)) "sorted, nested, filtered"
    (List.map (Filename.concat root)
       [ "a.py"; "b/c.py"; "b/d/e.py"; "m.py"; "q.py/r.py"; "y/b.py"; "z.py" ])
    (Namer_util.Fs.walk ~ext:".py" root);
  Alcotest.(check (list string)) "another suffix"
    [ Filename.concat root "y/a.txt" ]
    (Namer_util.Fs.walk ~ext:".txt" root);
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root)))

(* walk over symbolic links: a link back up the tree and a link to a
   directory already walked end there, so each real file is listed once;
   a dangling link is a file, listed only if it has the suffix *)
let test_fs_walk_symlinks () =
  let root = Filename.temp_file "namer_walk_links" "" in
  Sys.remove root;
  Namer_util.Fs.mkdir_p (Filename.concat root "a");
  close_out (open_out (Filename.concat root "a/f.py"));
  List.iter
    (fun (target, link) -> Unix.symlink target (Filename.concat root link))
    [ ("..", "a/up"); ("../nowhere", "a/dangling"); ("../nowhere.py", "a/gone.py"); ("a", "b") ];
  Alcotest.(check (list string)) "each real file once, the dangling .py link listed"
    (List.map (Filename.concat root) [ "a/f.py"; "a/gone.py" ])
    (Namer_util.Fs.walk ~ext:".py" root);
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root)))

let suite =
  suite @ json_suite
  @ [
      Alcotest.test_case "fs: mkdir_p" `Quick test_fs_mkdir_p;
      Alcotest.test_case "fs: walk is sorted, nested and extension-filtered" `Quick
        test_fs_walk;
      Alcotest.test_case "fs: walk follows each linked directory once" `Quick
        test_fs_walk_symlinks;
    ]
