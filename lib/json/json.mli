(** A small self-contained JSON implementation.

    Accelerator/host configuration files (Fig. 5 of the paper) are JSON;
    no external JSON package is vendored, so this module provides the
    subset we need: full parsing of standard JSON (objects, arrays,
    strings with escapes, numbers, booleans, null), a printer, and typed
    accessor helpers with located error messages. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a message containing line/column. *)

val of_string : string -> t
(** Parse a JSON document. Raises {!Parse_error}. *)

val to_string : ?indent:int -> t -> string
(** Print a JSON document. [indent > 0] pretty-prints. *)

val write_file : ?indent:int -> string -> t -> unit
(** Write [to_string ?indent json] and a trailing newline to [path].
    A regular or missing [path] is replaced atomically: the bytes go to
    a temp file in the same directory that is then renamed over [path],
    so readers (and a crash mid-write) only ever see the old or the new
    document. An existing [path] that is not a regular file (a device
    such as [/dev/stdout], a named pipe) is written in place. Raises
    [Sys_error] when the target cannot be written. *)

(** {1 Typed accessors}

    All accessors raise {!Type_error} with a path-qualified message on
    mismatch, so configuration errors point at the offending field. *)

exception Type_error of string

val member : string -> t -> t
(** [member key json] is the value bound to [key] in an object;
    [Null] if the key is absent. Raises {!Type_error} if not an object. *)

val member_opt : string -> t -> t option
(** As {!member} but [None] when absent. *)

val to_int : t -> int
(** Accepts [Int] and integral [Float]. *)

val to_float : t -> float
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list
val to_obj : t -> (string * t) list
