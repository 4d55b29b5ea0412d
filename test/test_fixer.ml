(* Tests for fix application: style-preserving subtoken rewrites on source
   lines. *)

module Fixer = Namer_core.Fixer

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let applied = function Fixer.Applied s -> s | _ -> Alcotest.fail "expected Applied"

let test_fix_camel () =
  check_str "assertTrue -> assertEqual"
    "        self.assertEqual(picture.rotate_angle, 90)"
    (applied
       (Fixer.fix_line "        self.assertTrue(picture.rotate_angle, 90)"
          ~found:"True" ~suggested:"Equal"))

let test_fix_snake () =
  check_str "snake typo" "self.picture_name = name"
    (applied (Fixer.fix_line "self.picture_nmae = name" ~found:"nmae" ~suggested:"name"))

let test_fix_whole_token () =
  check_str "single-subtoken identifier" "for i in range(10):"
    (applied (Fixer.fix_line "for n in range(10):" ~found:"n" ~suggested:"i"))

let test_fix_java_typo () =
  check_str "java camel" "        this.publicKey = publicKey;"
    (applied
       (Fixer.fix_line "        this.publicKey = publickKey;" ~found:"publick"
          ~suggested:"public"))

let test_ambiguous_not_rewritten () =
  (* 'name' appears as a subtoken of two identifiers: refuse to guess *)
  match Fixer.fix_line "name = other_name" ~found:"name" ~suggested:"title" with
  | Fixer.Ambiguous n -> Alcotest.(check bool) "two candidates" true (n = 2)
  | _ -> Alcotest.fail "expected ambiguity"

let test_not_found () =
  check_bool "missing subtoken" true
    (Fixer.fix_line "x = y" ~found:"zzz" ~suggested:"w" = Fixer.Not_found_on_line)

let test_fix_source_multi () =
  let source = "a = 1\nself.assertTrue(v, 3)\nfor n in range(4):\n" in
  let fixed, outcomes =
    Fixer.fix_source source [ (2, "True", "Equal"); (3, "n", "i") ]
  in
  check_str "both lines rewritten" "a = 1\nself.assertEqual(v, 3)\nfor i in range(4):\n"
    fixed;
  check_bool "all applied" true
    (List.for_all
       (fun (_, _, _, r) -> match r with Fixer.Applied _ -> true | _ -> false)
       outcomes)

let test_fix_source_out_of_range () =
  let source = "x = 1" in
  let fixed, outcomes = Fixer.fix_source source [ (99, "x", "y") ] in
  check_str "untouched" source fixed;
  check_bool "reported" true
    (match outcomes with [ (_, _, _, Fixer.Not_found_on_line) ] -> true | _ -> false)

let test_fixed_line_reparses () =
  (* end-to-end sanity: the fixed python line stays parseable *)
  let fixed =
    applied
      (Fixer.fix_line "self.assertTrue(value, 42)" ~found:"True" ~suggested:"Equal")
  in
  match Namer_pylang.Py_parser.parse_module (fixed ^ "\n") with
  | [ _ ] -> ()
  | _ -> Alcotest.fail "fixed line should be one statement"

let test_fix_file_keeps_mode () =
  let path = Filename.temp_file "namer_fix" ".py" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "a = 1\nself.assertTrue(v, 3)\n");
  Unix.chmod path 0o640;
  let outcomes = Fixer.fix_file ~path [ (2, "True", "Equal") ] in
  check_bool "applied" true
    (match outcomes with [ (_, _, _, Fixer.Applied _) ] -> true | _ -> false);
  check_str "fixed content on disk" "a = 1\nself.assertEqual(v, 3)\n"
    (In_channel.with_open_bin path In_channel.input_all);
  Alcotest.(check int) "mode unchanged" 0o640 (Unix.stat path).Unix.st_perm

let suite =
  [
    Alcotest.test_case "camelCase fix" `Quick test_fix_camel;
    Alcotest.test_case "snake_case fix" `Quick test_fix_snake;
    Alcotest.test_case "whole-token fix" `Quick test_fix_whole_token;
    Alcotest.test_case "java typo fix" `Quick test_fix_java_typo;
    Alcotest.test_case "ambiguity refused" `Quick test_ambiguous_not_rewritten;
    Alcotest.test_case "missing subtoken" `Quick test_not_found;
    Alcotest.test_case "multi-line fixes" `Quick test_fix_source_multi;
    Alcotest.test_case "out-of-range line" `Quick test_fix_source_out_of_range;
    Alcotest.test_case "fixed line reparses" `Quick test_fixed_line_reparses;
    Alcotest.test_case "file rewrite keeps mode" `Quick test_fix_file_keeps_mode;
  ]
