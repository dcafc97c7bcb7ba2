(* Metric names and units as the benchmark record accepts them. *)

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* A letter or digit, then letters, digits, '_', '.' and '-'; at most 64. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(* Letters, digits, '_', '/', '%', '.' and '-'; at most 16. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s
