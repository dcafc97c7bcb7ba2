(* Order statistics over small samples. *)

(* [percentile xs p], [p] in [0, 100]: linear interpolation between the
   closest ranks of the sorted sample.  [nan] on an empty sample. *)
let percentile xs p =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = max 0 (min (n - 1) (int_of_float (Float.floor rank))) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

let maximum xs = List.fold_left Float.max Float.neg_infinity xs

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
