let schema = "axi4mlir-tune-v1"

type outcome = Cycles of float | Rejected of string

type entry = {
  e_key : string;
  e_label : string;
  e_workload : string;
  e_candidate : Json.t;
  e_outcome : outcome;
}

type t = {
  table : (string, outcome) Hashtbl.t;
  mutable entries : entry list;  (** reverse insertion order *)
}

let create () = { table = Hashtbl.create 64; entries = [] }

let key workload config candidate =
  Benchdiff.config_hash
    (Json.Obj
       [
         ("dims", Json.List (List.map (fun d -> Json.Int d) (Tune_workload.dims workload)));
         ("conv", Json.Bool (Tune_workload.is_conv workload));
         ("accel", Accel_config.to_json config);
         ("candidate", Tune_space.candidate_to_json candidate);
       ])

let find t k = Hashtbl.find_opt t.table k

let add t ~key ~label ~workload ~candidate outcome =
  if not (Hashtbl.mem t.table key) then
    t.entries <-
      {
        e_key = key;
        e_label = label;
        e_workload = Tune_workload.to_string workload;
        e_candidate = Tune_space.candidate_to_json candidate;
        e_outcome = outcome;
      }
      :: t.entries;
  Hashtbl.replace t.table key outcome

let size t = Hashtbl.length t.table

let outcome_to_json = function
  | Cycles c -> Json.Obj [ ("cycles", Json.Float c) ]
  | Rejected reason -> Json.Obj [ ("rejected", Json.String reason) ]

let entry_to_json e =
  Json.Obj
    [
      ("key", Json.String e.e_key);
      ("label", Json.String e.e_label);
      ("workload", Json.String e.e_workload);
      ("candidate", e.e_candidate);
      ("outcome", outcome_to_json e.e_outcome);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("entries", Json.List (List.rev_map entry_to_json t.entries));
    ]

let save t path = Json.write_file ~indent:2 path (to_json t)

let entry_of_json json =
  let outcome_json = Json.member "outcome" json in
  let outcome =
    match Json.member_opt "cycles" outcome_json with
    | Some c -> Cycles (Json.to_float c)
    | None -> Rejected (Json.to_str (Json.member "rejected" outcome_json))
  in
  {
    e_key = Json.to_str (Json.member "key" json);
    e_label = Json.to_str (Json.member "label" json);
    e_workload = Json.to_str (Json.member "workload" json);
    e_candidate = Json.member "candidate" json;
    e_outcome = outcome;
  }

let load path =
  if not (Sys.file_exists path) then Ok (create ())
  else
    match
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Json.of_string text
    with
    | exception Sys_error msg -> Error msg
    | exception Json.Parse_error msg ->
      Error (Printf.sprintf "%s: not a tune cache: %s" path msg)
    | json -> (
      match
        let got = Json.to_str (Json.member "schema" json) in
        if got <> schema then
          failwith (Printf.sprintf "schema %S, expected %S" got schema);
        List.map entry_of_json (Json.to_list (Json.member "entries" json))
      with
      | exception Failure msg -> Error (Printf.sprintf "%s: %s" path msg)
      | exception Json.Type_error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | entries ->
        let t = create () in
        List.iter
          (fun e ->
            if not (Hashtbl.mem t.table e.e_key) then t.entries <- e :: t.entries;
            Hashtbl.replace t.table e.e_key e.e_outcome)
          entries;
        Ok t)
