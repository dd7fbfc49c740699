type severity = Error | Warn | Hint

type t = { severity : severity; pass : string; at : int; message : string }

let severity_name = function Error -> "error" | Warn -> "warn" | Hint -> "hint"
let gating d = match d.severity with Error | Warn -> true | Hint -> false

let make ~severity ~pass ~at fmt =
  Printf.ksprintf (fun message -> { severity; pass; at; message }) fmt

let rank = function Error -> 0 | Warn -> 1 | Hint -> 2

let compare a b =
  match Int.compare (rank a.severity) (rank b.severity) with
  | 0 -> ( match Int.compare a.at b.at with 0 -> String.compare a.message b.message | c -> c)
  | c -> c

let to_string d =
  Printf.sprintf "[%s] %s@%d: %s" (severity_name d.severity) d.pass d.at d.message

let to_json d =
  Printf.sprintf {|{"severity": "%s", "pass": "%s", "at": %d, "message": "%s"}|}
    (severity_name d.severity) d.pass d.at (Weaver_obs.Json.escape d.message)
