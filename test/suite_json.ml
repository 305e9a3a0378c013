(* Tests for the JSON implementation. *)

let parse = Json.of_string

let test_scalars () =
  Alcotest.(check bool) "true" true (Json.to_bool (parse "true"));
  Alcotest.(check bool) "false" false (Json.to_bool (parse "false"));
  Alcotest.(check int) "int" 42 (Json.to_int (parse "42"));
  Alcotest.(check int) "negative" (-7) (Json.to_int (parse "-7"));
  Alcotest.(check (float 1e-12)) "float" 2.5 (Json.to_float (parse "2.5"));
  Alcotest.(check (float 1e-6)) "exponent" 1500.0 (Json.to_float (parse "1.5e3"));
  (match parse "null" with Json.Null -> () | _ -> Alcotest.fail "null");
  Alcotest.(check string) "string" "hi" (Json.to_str (parse "\"hi\""))

let test_escapes () =
  Alcotest.(check string) "newline" "a\nb" (Json.to_str (parse {|"a\nb"|}));
  Alcotest.(check string) "quote" "say \"hi\"" (Json.to_str (parse {|"say \"hi\""|}));
  Alcotest.(check string) "backslash" "a\\b" (Json.to_str (parse {|"a\\b"|}));
  Alcotest.(check string) "unicode" "A" (Json.to_str (parse {|"A"|}));
  (* surrogate pair for U+1F600 encodes to 4 UTF-8 bytes *)
  Alcotest.(check int) "surrogate pair" 4
    (String.length (Json.to_str (parse {|"😀"|})))

let test_structures () =
  let j = parse {| { "a": [1, 2, 3], "b": { "c": true }, "empty": [], "eo": {} } |} in
  Alcotest.(check int) "array elems" 3 (List.length (Json.to_list (Json.member "a" j)));
  Alcotest.(check bool) "nested" true (Json.to_bool (Json.member "c" (Json.member "b" j)));
  Alcotest.(check int) "empty array" 0 (List.length (Json.to_list (Json.member "empty" j)));
  Alcotest.(check int) "empty object" 0 (List.length (Json.to_obj (Json.member "eo" j)));
  (match Json.member "missing" j with Json.Null -> () | _ -> Alcotest.fail "missing -> Null");
  Alcotest.(check bool) "member_opt none" true (Json.member_opt "missing" j = None)

let test_roundtrip () =
  let doc =
    Json.Obj
      [
        ("name", Json.String "v3_16");
        ("dims", Json.List [ Json.Int 16; Json.Int 16; Json.Int 16 ]);
        ("freq", Json.Float 200.0);
        ("flex", Json.Bool false);
        ("nothing", Json.Null);
        ("nested", Json.Obj [ ("x", Json.String "a\"b") ]);
      ]
  in
  Alcotest.(check bool) "compact roundtrip" true (parse (Json.to_string doc) = doc);
  Alcotest.(check bool) "pretty roundtrip" true (parse (Json.to_string ~indent:2 doc) = doc)

let expect_parse_error src =
  match parse src with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail (Printf.sprintf "expected parse error for %s" src)

let test_errors () =
  expect_parse_error "{";
  expect_parse_error "[1, 2";
  expect_parse_error "tru";
  expect_parse_error "\"unterminated";
  expect_parse_error "{\"a\" 1}";
  expect_parse_error "1 2";
  expect_parse_error "{\"a\": 1,}";
  (* error message carries position *)
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (try
     ignore (parse "[1, \n  bad]");
     Alcotest.fail "expected parse error"
   with Json.Parse_error msg ->
     Alcotest.(check bool) "mentions line 2" true (contains msg "line 2"))

let test_type_errors () =
  let j = parse "{\"a\": 1}" in
  Alcotest.check_raises "to_bool of int" (Json.Type_error "expected bool, found int")
    (fun () -> ignore (Json.to_bool (Json.member "a" j)));
  Alcotest.check_raises "member of array" (Json.Type_error "expected object, found array")
    (fun () -> ignore (Json.member "x" (parse "[]")))

let test_large_int_fallback () =
  (* Integers beyond native range fall back to float rather than failing. *)
  match parse "123456789012345678901234567890" with
  | Json.Float _ -> ()
  | _ -> Alcotest.fail "expected float fallback"

(* write_file replaces the target atomically via a sibling temp file;
   after a successful write only the target remains. *)
let test_write_file () =
  let dir = Filename.temp_dir "axi4mlir_json" "" in
  let path = Filename.concat dir "doc.json" in
  let doc = Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.String "x" ]) ] in
  Json.write_file ~indent:2 path (Json.String "old");
  Json.write_file ~indent:2 path doc;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "bytes" (Json.to_string ~indent:2 doc ^ "\n") text;
  Alcotest.(check bool) "round trip" true (Json.of_string text = doc);
  Alcotest.(check (list string)) "no temp file left" [ "doc.json" ]
    (Array.to_list (Sys.readdir dir));
  Sys.remove path;
  Sys.rmdir dir

(* A target that exists but is not a regular file is written in place:
   renaming a temp file over /dev/null would replace the device. *)
let test_write_file_device () =
  Json.write_file ~indent:2 "/dev/null" (Json.Obj [ ("a", Json.Int 1) ]);
  Alcotest.(check bool) "/dev/null still a device" false (Sys.is_regular_file "/dev/null")

let tests =
  [
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "string escapes" `Quick test_escapes;
    Alcotest.test_case "structures" `Quick test_structures;
    Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "type errors" `Quick test_type_errors;
    Alcotest.test_case "large integer fallback" `Quick test_large_int_fallback;
    Alcotest.test_case "write_file: atomic round trip" `Quick test_write_file;
    Alcotest.test_case "write_file: device written in place" `Quick test_write_file_device;
  ]
