type severity = Error | Warning

type t = {
  code : string;
  severity : severity;
  path : string;
  message : string;
}

let error ~code ~path message = { code; severity = Error; path; message }
let warning ~code ~path message = { code; severity = Warning; path; message }

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds
let has_code code ds = List.exists (fun d -> d.code = code) ds

let severity_string = function Error -> "error" | Warning -> "warning"

let pp ppf d =
  if d.path = "" then
    Format.fprintf ppf "%s[%s]: %s" (severity_string d.severity) d.code
      d.message
  else
    Format.fprintf ppf "%s[%s] at %s: %s" (severity_string d.severity) d.code
      d.path d.message

let pp_list ppf = function
  | [] -> Format.fprintf ppf "no diagnostics"
  | ds ->
    Format.pp_print_list ~pp_sep:Format.pp_print_newline pp ppf ds

let summary ds =
  let ne = List.length (errors ds) and nw = List.length (warnings ds) in
  let plural n = if n = 1 then "" else "s" in
  Printf.sprintf "%d error%s, %d warning%s" ne (plural ne) nw (plural nw)
