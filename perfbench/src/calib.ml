(* Host-speed calibration.

   On a shared virtual machine the host's speed drifts by more than ten
   per cent between back-to-back runs of identical code, and process CPU
   time drifts with it, so raw seconds cannot be compared across runs.
   Every measured piece of work is therefore followed by a short slice of
   a fixed calibration kernel, and the work's duration is divided by the
   mean of the slices on either side of it and scaled by [reference_s].
   Slices are kept short and frequent: calibrating only at the edges of
   long stretches of work leaves the drift inside them uncorrected.

   The kernel allocates short-lived boxed tuples, sorts them through a
   closure comparator and folds them through a balanced map — the same
   mix of minor-heap allocation, indirect calls and pointer chasing as
   the simulator — and calls no library of the repository, so no change
   to the program under test can move it. *)

let now = Unix.gettimeofday

module Int_map = Map.Make (Int)

let sink = ref 0

let kernel_iterations = 250

let kernel () =
  let s = ref 0x2545F491 in
  let acc = ref 0 in
  for _ = 1 to kernel_iterations do
    let xs =
      List.init 48 (fun i ->
          s := ((!s * 1103515245) + 12345) land 0x3fffffff;
          (float_of_int (!s land 0xffff), i))
    in
    let xs = List.sort (fun (a, _) (b, _) -> Float.compare a b) xs in
    let m = List.fold_left (fun m (w, i) -> Int_map.add i w m) Int_map.empty xs in
    acc := Int_map.fold (fun k w a -> a + k + int_of_float w) m !acc
  done;
  sink := !sink lxor !acc

(* Seconds one kernel slice took on the reference host.  Calibrated
   seconds read as seconds on that host. *)
let reference_s = 0.0028

let slice () =
  let t0 = now () in
  kernel ();
  now () -. t0

type meter = {
  mutable prev : float;  (** Duration of the most recent slice. *)
  mutable raw_s : float;  (** Raw work seconds since the last {!reset}. *)
  mutable calib_s : float;  (** Seconds spent in calibration slices. *)
  mutable calibrated_s : float;
  mutable words : float;  (** Minor words allocated by the work. *)
  mutable factor : float;
      (** [reference_s] over the adjacent slices of the last {!work}. *)
}

let meter () =
  { prev = slice (); raw_s = 0.0; calib_s = 0.0; calibrated_s = 0.0;
    words = 0.0; factor = 1.0 }

let reset m =
  m.raw_s <- 0.0;
  m.calib_s <- 0.0;
  m.calibrated_s <- 0.0;
  m.words <- 0.0

let work m f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let finish () =
    let dt = now () -. t0 in
    let w1 = Gc.minor_words () in
    let c = slice () in
    m.factor <- reference_s /. ((m.prev +. c) /. 2.0);
    m.prev <- c;
    m.raw_s <- m.raw_s +. dt;
    m.calib_s <- m.calib_s +. c;
    m.calibrated_s <- m.calibrated_s +. (dt *. m.factor);
    m.words <- m.words +. (w1 -. w0)
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

type reading = { calibrated : float; raw : float; calib : float }

let reading m = { calibrated = m.calibrated_s; raw = m.raw_s; calib = m.calib_s }
