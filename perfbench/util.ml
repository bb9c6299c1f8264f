(* Shared by the end-to-end and the per-layer runs. *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Full major GC outside the timed region so one deployment's garbage is
   not collected on the next one's clock. *)
let settle () = Gc.full_major ()
