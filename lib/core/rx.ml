let window = 4096

type t = {
  mutable ahead : (int, bool) Hashtbl.t;
      (* settled index > frontier -> delivered?; [no_ahead] until the
         first out-of-order settle *)
  mutable frontier : int;
  mutable highest : int;
  mutable total : int;
  mutable delivered : int;
  mutable gone : int;
}

(* Shared and never written: an in-order stream, the common case, never
   allocates a table of its own. *)
let no_ahead : (int, bool) Hashtbl.t = Hashtbl.create 1

let create () =
  {
    ahead = no_ahead;
    frontier = 0;
    highest = -1;
    total = -1;
    delivered = 0;
    gone = 0;
  }

let reset t =
  t.ahead <- no_ahead;
  t.frontier <- 0;
  t.highest <- -1;
  t.total <- -1;
  t.delivered <- 0;
  t.gone <- 0

type admit = Fresh | Dup | Beyond_window

let settled t i = i < t.frontier || Hashtbl.mem t.ahead i

let admit t i =
  if settled t i then Dup
  else if i >= t.frontier + window then Beyond_window
  else begin
    if i > t.highest then t.highest <- i;
    Fresh
  end

let settle t i ~delivered =
  match admit t i with
  | (Dup | Beyond_window) as r -> r
  | Fresh ->
      if delivered then t.delivered <- t.delivered + 1
      else t.gone <- t.gone + 1;
      (* In-order arrivals, the common case, never touch the table. *)
      if i = t.frontier then t.frontier <- i + 1
      else begin
        if t.ahead == no_ahead then t.ahead <- Hashtbl.create 8;
        Hashtbl.replace t.ahead i delivered
      end;
      while Hashtbl.mem t.ahead t.frontier do
        Hashtbl.remove t.ahead t.frontier;
        t.frontier <- t.frontier + 1
      done;
      Fresh

let close t n = if t.total < 0 then t.total <- max n 0
let frontier t = t.frontier
let total t = t.total
let delivered t = t.delivered
let gone t = t.gone

let horizon t =
  let bound = if t.total >= 0 then t.total else t.highest + 1 in
  min bound (t.frontier + window)

let complete t = t.total >= 0 && t.frontier >= t.total

let missing t ~cap =
  let h = horizon t in
  let rec go i n acc =
    if i >= h || n >= cap then List.rev acc
    else if Hashtbl.mem t.ahead i then go (i + 1) n acc
    else go (i + 1) (n + 1) (i :: acc)
  in
  go t.frontier 0 []

let ahead_counts t =
  Hashtbl.fold
    (fun _ d (dl, gn) -> if d then (dl + 1, gn) else (dl, gn + 1))
    t.ahead (0, 0)
