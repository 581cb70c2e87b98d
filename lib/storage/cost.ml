type t = {
  comp : float;
  hash : float;
  move : float;
  swap : float;
  io_seq : float;
  io_rand : float;
  fudge : float;
}

let table2 =
  {
    comp = 3e-6;
    hash = 9e-6;
    move = 20e-6;
    swap = 60e-6;
    io_seq = 10e-3;
    io_rand = 25e-3;
    fudge = 1.2;
  }

let pp ppf c =
  Format.fprintf ppf
    "comp=%.2gus hash=%.2gus move=%.2gus swap=%.2gus IOseq=%.2gms \
     IOrand=%.2gms F=%.2g"
    (c.comp *. 1e6) (c.hash *. 1e6) (c.move *. 1e6) (c.swap *. 1e6)
    (c.io_seq *. 1e3) (c.io_rand *. 1e3) c.fudge
