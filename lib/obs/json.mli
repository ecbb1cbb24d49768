(** Minimal JSON tree, encoder and parser — no external dependencies.

    The encoder is deterministic (object fields are emitted in the
    order given, floats print through a shortest-round-trip format)
    so serialized telemetry can be compared textually.  NaN and
    infinities encode as [null]; JSON has no representation for
    them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] — render with 2-space indentation and a trailing
    newline at top level. *)
val to_string : t -> string

(** [to_buffer ~indent b v] — append [v] to [b] laid out as {!to_string}
    lays out a value nested at column [indent], without the top-level
    trailing newline.  For writers that stream a document in pieces and
    must match {!to_string} byte for byte. *)
val to_buffer : indent:int -> Buffer.t -> t -> unit

(** [write_atomic_with ?fsync ~file write] — run [write] on a fresh temp
    file in the same directory as [file], then [Sys.rename] it over
    [file].  Readers observe either the previous complete file or the
    new one, never a truncated prefix; with [~fsync:true] the data is
    forced to disk before the rename (for checkpoints that must survive
    power loss, not just process death).  If [write] raises, the temp
    file is removed and [file] is untouched. *)
val write_atomic_with :
  ?fsync:bool -> file:string -> (out_channel -> unit) -> unit

(** [write_atomic ?fsync ~file v] — {!write_atomic_with} writing
    [to_string v]. *)
val write_atomic : ?fsync:bool -> file:string -> t -> unit

(** [write ~file v] — alias for {!write_atomic} without fsync.  Kept
    as the ordinary entry point so every manifest emit in the tree is
    crash-safe by default. *)
val write : file:string -> t -> unit

(** [read_file file] — read and parse one JSON document from [file].
    Errors (missing file, I/O failure, malformed or trailing bytes)
    come back as [Error msg] with the filename prefixed — truncated
    or corrupted checkpoints are rejected, never mis-parsed. *)
val read_file : string -> (t, string) result

(** [of_string s] — parse one JSON document (surrounding whitespace
    allowed).  Numbers without [.]/[e] parse as [Int] when they fit,
    else [Float]; [\uXXXX] escapes decode to UTF-8. *)
val of_string : string -> (t, string) result

(** {1 Accessors} (for validation code; all total) *)

(** [member k v] — field [k] of an object, if any. *)
val member : string -> t -> t option

(** [to_float_opt v] — [Float] or [Int] as a float. *)
val to_float_opt : t -> float option

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
