(** JSON string escaping, shared by every JSON writer in the project. *)

val escape : string -> string
(** [escape s] is [s] as the contents of a JSON string literal, without
    the quotes. Double quote, backslash, newline, tab and carriage return
    take their two-character escapes; other control characters take
    [\u00XX]. *)
