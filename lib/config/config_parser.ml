let ( let* ) = Result.bind

let parse_string_result text =
  match Json.of_string text with
  | exception Json.Parse_error msg -> Error ("config: " ^ msg)
  | json ->
    let section name =
      match Json.member_opt name json with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "config: missing \"%s\" section" name)
    in
    let* cpu = section "cpu" in
    let* host = Host_config.of_json_result cpu in
    let* accel_json = section "accelerator" in
    let* accel = Accel_config.of_json_result accel_json in
    Ok (host, accel)

let parse_string text =
  match parse_string_result text with Ok r -> r | Error msg -> failwith msg

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file_result path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text -> parse_string_result text

let parse_file path = parse_string (read_file path)

let to_json host accel =
  Json.Obj [ ("cpu", Host_config.to_json host); ("accelerator", Accel_config.to_json accel) ]

let to_string host accel = Json.to_string ~indent:2 (to_json host accel)

let write_file path host accel = Json.write_file ~indent:2 path (to_json host accel)
