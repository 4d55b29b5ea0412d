(* Tests for the §4.1 analyses: the points-to solver, the Python
   interprocedural analysis with k-call-site contexts, and the Java
   declared-type/flow analysis. *)

open Namer_analysis

let check_bool = Alcotest.(check bool)
let check_opt = Alcotest.(check (option string))
let check_int = Alcotest.(check int)

(* ---------------- Solver ---------------- *)

let test_solver_direct () =
  let s = Solver.create () in
  Solver.alloc s ~key:"x" ~origin:"Intent";
  check_opt "direct allocation" (Some "Intent") (Solver.singleton_origin s ~key:"x")

let test_solver_copy_chain () =
  let s = Solver.create () in
  Solver.alloc s ~key:"a" ~origin:"Picture";
  Solver.assign s ~dst:"b" ~src:"a";
  Solver.assign s ~dst:"c" ~src:"b";
  check_opt "flows through copies" (Some "Picture") (Solver.singleton_origin s ~key:"c")

let test_solver_merge_imprecise () =
  let s = Solver.create () in
  Solver.alloc s ~key:"x" ~origin:"A";
  Solver.alloc s ~key:"x" ~origin:"B";
  check_opt "two origins = imprecise" None (Solver.singleton_origin s ~key:"x");
  check_int "both tracked" 2 (List.length (Solver.origins_of s ~key:"x"))

let test_solver_top_poisons () =
  let s = Solver.create () in
  Solver.alloc s ~key:"x" ~origin:Solver.top;
  check_opt "⊤ is not precise" None (Solver.singleton_origin s ~key:"x")

let test_solver_unknown_key () =
  let s = Solver.create () in
  check_opt "unknown key" None (Solver.singleton_origin s ~key:"nope");
  check_bool "empty origins" true (Solver.origins_of s ~key:"nope" = [])

let test_solver_cycle () =
  let s = Solver.create () in
  Solver.alloc s ~key:"a" ~origin:"T";
  Solver.assign s ~dst:"b" ~src:"a";
  Solver.assign s ~dst:"a" ~src:"b";
  check_opt "cyclic copies terminate" (Some "T") (Solver.singleton_origin s ~key:"b")

let test_solver_facts_after_query () =
  let s = Solver.create () in
  Solver.alloc s ~key:"a" ~origin:"T";
  check_opt "first query" (Some "T") (Solver.singleton_origin s ~key:"a");
  Solver.assign s ~dst:"b" ~src:"a";
  Solver.alloc s ~key:"c" ~origin:"U";
  check_opt "copy added after the query" (Some "T") (Solver.singleton_origin s ~key:"b");
  check_opt "allocation added after the query" (Some "U")
    (Solver.singleton_origin s ~key:"c");
  Solver.alloc s ~key:"a" ~origin:"V";
  check_opt "a later allocation reaches earlier copies" None
    (Solver.singleton_origin s ~key:"b");
  check_int "both origins copied" 2 (List.length (Solver.origins_of s ~key:"b"))

let test_solver_resume () =
  let s = Solver.create () in
  Solver.alloc s ~key:"a" ~origin:"T";
  Solver.assign s ~dst:"b" ~src:"a";
  check_opt "first fixpoint" (Some "T") (Solver.singleton_origin s ~key:"b");
  Solver.assign s ~dst:"c" ~src:"b";
  Solver.assign s ~dst:"d" ~src:"c";
  check_opt "resumed fixpoint extends the chain" (Some "T")
    (Solver.singleton_origin s ~key:"d")

let test_solver_query_idempotent () =
  let s = Solver.create () in
  Solver.alloc s ~key:"a" ~origin:"A";
  Solver.alloc s ~key:"b" ~origin:"B";
  Solver.assign s ~dst:"c" ~src:"a";
  Solver.assign s ~dst:"c" ~src:"b";
  let first = Solver.origins_of s ~key:"c" in
  check_int "two origins" 2 (List.length first);
  check_bool "second query is a no-op" true (Solver.origins_of s ~key:"c" = first)

(* Random alloc/assign sequences with interleaved queries against a naive
   fixpoint: apply the copy rule to every fact until nothing changes. *)
type solver_op = Alloc of int * int | Assign of int * int | Query

let naive_origins ~allocs ~assigns key =
  let rec fix pt =
    let derived =
      List.concat_map
        (fun (d, s) ->
          List.filter_map
            (fun (l, o) -> if l = s && not (List.mem (d, o) pt) then Some (d, o) else None)
            pt)
        assigns
    in
    if derived = [] then pt else fix (List.sort_uniq compare (derived @ pt))
  in
  fix (List.sort_uniq compare allocs)
  |> List.filter_map (fun (l, o) -> if l = key then Some o else None)

let prop_solver_naive_fixpoint =
  let n_locs = 6 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun k o -> Alloc (k, o)) (int_bound (n_locs - 1)) (int_bound 3));
          (4, map2 (fun d s -> Assign (d, s)) (int_bound (n_locs - 1)) (int_bound (n_locs - 1)));
          (2, return Query);
        ])
  in
  let print = function
    | Alloc (k, o) -> Printf.sprintf "alloc l%d o%d" k o
    | Assign (d, s) -> Printf.sprintf "assign l%d <- l%d" d s
    | Query -> "query"
  in
  QCheck.Test.make ~name:"solver: matches naive fixpoint" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (int_bound 40) op))
    (fun ops ->
      let s = Solver.create () in
      let loc = Printf.sprintf "l%d" and origin = Printf.sprintf "o%d" in
      let agrees ~allocs ~assigns =
        List.for_all
          (fun k ->
            List.sort compare (Solver.origins_of s ~key:(loc k))
            = List.map origin (naive_origins ~allocs ~assigns k))
          (List.init n_locs Fun.id)
      in
      let rec go allocs assigns = function
        | [] -> agrees ~allocs ~assigns
        | Alloc (k, o) :: rest ->
            Solver.alloc s ~key:(loc k) ~origin:(origin o);
            go ((k, o) :: allocs) assigns rest
        | Assign (d, src) :: rest ->
            Solver.assign s ~dst:(loc d) ~src:(loc src);
            go allocs ((d, src) :: assigns) rest
        | Query :: rest -> agrees ~allocs ~assigns && go allocs assigns rest
      in
      go [] [] ops)

(* ---------------- Python analysis ---------------- *)

let py_origins src ~cls ~fn =
  let m = Namer_pylang.Py_parser.parse_module src in
  let a = Py_analysis.analyze m in
  Py_analysis.origins_for a ~cls ~fn

let test_py_self_root_base () =
  let o =
    py_origins
      "from unittest import TestCase\nclass TestPicture(TestCase):\n    def test(self):\n        pass\n"
      ~cls:(Some "TestPicture") ~fn:(Some "test")
  in
  check_opt "self origin is the external root base" (Some "TestCase")
    (o.Namer_namepath.Origins.var_origin "self")

let test_py_self_inheritance_chain () =
  let o =
    py_origins
      "class Base(TestCase):\n    pass\nclass Derived(Base):\n    def m(self):\n        pass\n"
      ~cls:(Some "Derived") ~fn:(Some "m")
  in
  check_opt "chain followed through in-file base" (Some "TestCase")
    (o.Namer_namepath.Origins.var_origin "self")

let test_py_self_no_base () =
  let o =
    py_origins "class C(object):\n    def m(self):\n        pass\n"
      ~cls:(Some "C") ~fn:(Some "m")
  in
  (* object is external, so it is the chain's root *)
  check_opt "object-rooted" (Some "object") (o.Namer_namepath.Origins.var_origin "self")

let test_py_import_alias () =
  let o =
    py_origins "import numpy as np\n" ~cls:None ~fn:None
  in
  check_opt "module alias origin" (Some "numpy") (o.Namer_namepath.Origins.var_origin "np")

let test_py_allocation () =
  let o =
    py_origins "def f():\n    pic = Picture()\n    x = pic\n    return x\n"
      ~cls:None ~fn:(Some "f")
  in
  check_opt "allocation" (Some "Picture") (o.Namer_namepath.Origins.var_origin "pic");
  check_opt "copy" (Some "Picture") (o.Namer_namepath.Origins.var_origin "x")

let test_py_literals () =
  let o =
    py_origins "def f():\n    s = \"x\"\n    n = 3\n    b = True\n    xs = [1]\n"
      ~cls:None ~fn:(Some "f")
  in
  let v = o.Namer_namepath.Origins.var_origin in
  check_opt "str" (Some "Str") (v "s");
  check_opt "num" (Some "Num") (v "n");
  check_opt "bool" (Some "Bool") (v "b");
  check_opt "list" (Some "List") (v "xs")

let test_py_modified_is_top () =
  let o =
    py_origins "def f():\n    n = 3\n    n += 1\n" ~cls:None ~fn:(Some "f")
  in
  check_opt "augmented assignment poisons" None (o.Namer_namepath.Origins.var_origin "n")

let test_py_external_call_value_origin () =
  let o =
    py_origins "def f(path):\n    data = parse(path)\n" ~cls:None ~fn:(Some "f")
  in
  check_opt "function-returning-value origin" (Some "parse")
    (o.Namer_namepath.Origins.var_origin "data")

let test_py_interprocedural_return () =
  let o =
    py_origins
      "def make():\n    return Widget()\ndef use():\n    w = make()\n"
      ~cls:None ~fn:(Some "use")
  in
  check_opt "return value flows to caller" (Some "Widget")
    (o.Namer_namepath.Origins.var_origin "w")

let test_py_interprocedural_param () =
  let o =
    py_origins
      "def helper(w):\n    return w\ndef caller():\n    x = helper(Widget())\n"
      ~cls:None ~fn:(Some "helper")
  in
  check_opt "argument binds to parameter" (Some "Widget")
    (o.Namer_namepath.Origins.var_origin "w")

let test_py_attr_origin () =
  let o =
    py_origins
      "class C(object):\n    def __init__(self):\n        self.slide = Slide()\n    def m(self):\n        pass\n"
      ~cls:(Some "C") ~fn:(Some "m")
  in
  check_opt "attribute origin across methods" (Some "Slide")
    (o.Namer_namepath.Origins.attr_origin "slide")

let test_py_except_binding () =
  let o =
    py_origins
      "def f():\n    try:\n        g()\n    except ValueError as e:\n        pass\n"
      ~cls:None ~fn:(Some "f")
  in
  check_opt "handler binder" (Some "ValueError") (o.Namer_namepath.Origins.var_origin "e")

let test_py_with_binding () =
  let o =
    py_origins "def f(p):\n    with open(p) as fh:\n        pass\n"
      ~cls:None ~fn:(Some "f")
  in
  check_opt "with binder" (Some "open") (o.Namer_namepath.Origins.var_origin "fh")

let test_py_call_origin () =
  let o = py_origins "def f():\n    pass\n" ~cls:None ~fn:(Some "f") in
  check_opt "capitalized callee is allocation" (Some "Picture")
    (o.Namer_namepath.Origins.call_origin "Picture");
  check_opt "lowercase external callee unknown" None
    (o.Namer_namepath.Origins.call_origin "helper")

let test_py_conflicting_assignments () =
  let o =
    py_origins "def f():\n    x = Picture()\n    x = Slide()\n"
      ~cls:None ~fn:(Some "f")
  in
  check_opt "conflicting origins are imprecise" None
    (o.Namer_namepath.Origins.var_origin "x")

let test_py_effective_k () =
  let m = Namer_pylang.Py_parser.parse_module "def f():\n    return 1\ndef g():\n    return f()\n" in
  let a = Py_analysis.analyze ~k:5 m in
  check_int "k preserved without explosion" 5 (Py_analysis.effective_k a);
  check_bool "instances enumerated" true (Py_analysis.n_instances a >= 2)

(* ---------------- Java analysis ---------------- *)

let java_origins src ~cls ~fn =
  let u = Namer_javalang.Java_parser.parse_compilation_unit src in
  let a = Java_analysis.analyze u in
  Java_analysis.origins_for a ~cls ~fn

let test_java_this_root () =
  let o =
    java_origins "class MainActivity extends Activity { void m() { } }"
      ~cls:(Some "MainActivity") ~fn:(Some "m")
  in
  check_opt "this is root supertype" (Some "Activity")
    (o.Namer_namepath.Origins.var_origin "this")

let test_java_declared_local () =
  let o =
    java_origins "class C { void m() { Intent intent = getIntent(); } }"
      ~cls:(Some "C") ~fn:(Some "m")
  in
  check_opt "declared type wins for specific refs" (Some "Intent")
    (o.Namer_namepath.Origins.var_origin "intent")

let test_java_object_gets_allocation () =
  let o =
    java_origins "class C { void m() { Object x = new Intent(); } }"
      ~cls:(Some "C") ~fn:(Some "m")
  in
  check_opt "Object falls through to allocation" (Some "Intent")
    (o.Namer_namepath.Origins.var_origin "x")

let test_java_primitives () =
  let o =
    java_origins "class C { void m() { int n = 3; boolean b = true; String s = \"x\"; } }"
      ~cls:(Some "C") ~fn:(Some "m")
  in
  let v = o.Namer_namepath.Origins.var_origin in
  check_opt "int literal" (Some "Num") (v "n");
  check_opt "boolean" (Some "Bool") (v "b");
  check_opt "String declared" (Some "String") (v "s")

let test_java_field_origin () =
  let o =
    java_origins "class C { private ProgressDialog dialog; void m() { } }"
      ~cls:(Some "C") ~fn:(Some "m")
  in
  check_opt "field declared type" (Some "ProgressDialog")
    (o.Namer_namepath.Origins.attr_origin "dialog")

let test_java_catch_binder () =
  let o =
    java_origins "class C { void m() { try { f(); } catch (Throwable e) { } } }"
      ~cls:(Some "C") ~fn:(Some "m")
  in
  check_opt "catch binder" (Some "Throwable") (o.Namer_namepath.Origins.var_origin "e")

let test_java_foreach_binder () =
  let o =
    java_origins "class C { void m(java.util.List items) { for (String s : items) { } } }"
      ~cls:(Some "C") ~fn:(Some "m")
  in
  check_opt "foreach binder" (Some "String") (o.Namer_namepath.Origins.var_origin "s")

let test_java_return_type_origin () =
  let o =
    java_origins
      "class C { Intent build() { return new Intent(); } void m() { } }"
      ~cls:(Some "C") ~fn:(Some "m")
  in
  check_opt "in-file method return type" (Some "Intent")
    (o.Namer_namepath.Origins.call_origin "build")

let test_java_param_origin () =
  let o =
    java_origins "class C { void m(Context context) { } }"
      ~cls:(Some "C") ~fn:(Some "m")
  in
  check_opt "parameter declared type" (Some "Context")
    (o.Namer_namepath.Origins.var_origin "context")

let test_java_local_after_receiver_call () =
  (* the call on [h] queries the solver in the middle of fact generation *)
  let o =
    java_origins
      "class C { void m() { Helper h = new Helper(); h.go(); Picture p = new Picture(); } }"
      ~cls:(Some "C") ~fn:(Some "m")
  in
  check_opt "local declared after the call" (Some "Picture")
    (o.Namer_namepath.Origins.var_origin "p")

let test_java_increment_poisons () =
  let o =
    java_origins "class C { void m() { int n = 3; n++; } }"
      ~cls:(Some "C") ~fn:(Some "m")
  in
  (* n++ assigns ⊤ only through Assign_e; Postfix in expression position is
     evaluated but does not rebind — declared-primitive locals track their
     initializer, so re-binding via arithmetic must poison: *)
  check_opt "incremented local imprecise" None (o.Namer_namepath.Origins.var_origin "n")

let suite =
  [
    Alcotest.test_case "solver: direct allocation" `Quick test_solver_direct;
    Alcotest.test_case "solver: copy chains" `Quick test_solver_copy_chain;
    Alcotest.test_case "solver: merged origins imprecise" `Quick test_solver_merge_imprecise;
    Alcotest.test_case "solver: top poisons" `Quick test_solver_top_poisons;
    Alcotest.test_case "solver: unknown key" `Quick test_solver_unknown_key;
    Alcotest.test_case "solver: cycles terminate" `Quick test_solver_cycle;
    Alcotest.test_case "solver: facts added after a query propagate" `Quick
      test_solver_facts_after_query;
    Alcotest.test_case "solver: resume after new facts" `Quick test_solver_resume;
    Alcotest.test_case "solver: idempotent second query" `Quick test_solver_query_idempotent;
    QCheck_alcotest.to_alcotest prop_solver_naive_fixpoint;
    Alcotest.test_case "py: self root base" `Quick test_py_self_root_base;
    Alcotest.test_case "py: inheritance chain" `Quick test_py_self_inheritance_chain;
    Alcotest.test_case "py: baseless class" `Quick test_py_self_no_base;
    Alcotest.test_case "py: import alias" `Quick test_py_import_alias;
    Alcotest.test_case "py: allocation + copies" `Quick test_py_allocation;
    Alcotest.test_case "py: literal origins" `Quick test_py_literals;
    Alcotest.test_case "py: modification = ⊤" `Quick test_py_modified_is_top;
    Alcotest.test_case "py: external call value" `Quick test_py_external_call_value_origin;
    Alcotest.test_case "py: interprocedural return" `Quick test_py_interprocedural_return;
    Alcotest.test_case "py: interprocedural param" `Quick test_py_interprocedural_param;
    Alcotest.test_case "py: attribute origins" `Quick test_py_attr_origin;
    Alcotest.test_case "py: except binder" `Quick test_py_except_binding;
    Alcotest.test_case "py: with binder" `Quick test_py_with_binding;
    Alcotest.test_case "py: call origins" `Quick test_py_call_origin;
    Alcotest.test_case "py: conflicting assignments" `Quick test_py_conflicting_assignments;
    Alcotest.test_case "py: context budget" `Quick test_py_effective_k;
    Alcotest.test_case "java: this root" `Quick test_java_this_root;
    Alcotest.test_case "java: declared locals" `Quick test_java_declared_local;
    Alcotest.test_case "java: Object + allocation" `Quick test_java_object_gets_allocation;
    Alcotest.test_case "java: primitives" `Quick test_java_primitives;
    Alcotest.test_case "java: field origins" `Quick test_java_field_origin;
    Alcotest.test_case "java: catch binder" `Quick test_java_catch_binder;
    Alcotest.test_case "java: foreach binder" `Quick test_java_foreach_binder;
    Alcotest.test_case "java: return-type origin" `Quick test_java_return_type_origin;
    Alcotest.test_case "java: parameter origin" `Quick test_java_param_origin;
    Alcotest.test_case "java: increment poisons" `Quick test_java_increment_poisons;
    Alcotest.test_case "java: local declared after a receiver call keeps its origin" `Quick
      test_java_local_after_receiver_call;
  ]

(* ---------------- context discovery ---------------- *)

let test_py_module_called_instances () =
  (* functions called from module scope must get context instances, so the
     interprocedural bindings written by the module walk resolve *)
  let m =
    Namer_pylang.Py_parser.parse_module
      "def build(w):\n    return w\nresult = build(Widget())\n"
  in
  let a = Py_analysis.analyze ~k:2 m in
  let o = Py_analysis.origins_for a ~cls:None ~fn:(Some "build") in
  check_opt "module-call binding reaches the parameter" (Some "Widget")
    (o.Namer_namepath.Origins.var_origin "w");
  let om = Py_analysis.origins_for a ~cls:None ~fn:None in
  check_opt "return value reaches module scope" (Some "Widget")
    (om.Namer_namepath.Origins.var_origin "result")

let test_py_context_sensitivity_separates_callers () =
  (* with k ≥ 1, two call sites with different argument origins must not
     pollute each other through the shared callee *)
  let m =
    Namer_pylang.Py_parser.parse_module
      "def ident(v):\n    return v\ndef f():\n    a = ident(Picture())\n    return a\ndef g():\n    b = ident(Slide())\n    return b\n"
  in
  let a1 = Py_analysis.analyze ~k:2 m in
  let of_ fn name =
    (Py_analysis.origins_for a1 ~cls:None ~fn:(Some fn)).Namer_namepath.Origins.var_origin
      name
  in
  check_opt "f's copy stays Picture" (Some "Picture") (of_ "f" "a");
  check_opt "g's copy stays Slide" (Some "Slide") (of_ "g" "b");
  (* context-insensitively the callee merges both: imprecise *)
  let a0 = Py_analysis.analyze ~k:0 m in
  let o0 = Py_analysis.origins_for a0 ~cls:None ~fn:(Some "f") in
  check_opt "k = 0 merges and loses precision" None
    (o0.Namer_namepath.Origins.var_origin "a")

let test_py_instances_grow_with_k () =
  let m =
    Namer_pylang.Py_parser.parse_module
      "def l0(x):\n    return l1(x)\ndef l1(x):\n    return l2(x)\ndef l2(x):\n    return x\ndef top():\n    a = l0(1)\n    b = l0(2)\n    return a\n"
  in
  let n k = Py_analysis.n_instances (Py_analysis.analyze ~k m) in
  check_bool "instances grow with k" true (n 0 < n 1 && n 1 <= n 3)

let discovery_suite =
  [
    Alcotest.test_case "py: module-call instances" `Quick test_py_module_called_instances;
    Alcotest.test_case "py: context sensitivity" `Quick test_py_context_sensitivity_separates_callers;
    Alcotest.test_case "py: instances grow with k" `Quick test_py_instances_grow_with_k;
  ]

let suite = suite @ discovery_suite
