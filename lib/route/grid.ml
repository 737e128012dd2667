type point = int * int

let default_pitch = 20
let default_margin = 4

let snap ~pitch ~margin (x, y) =
  ((x + (pitch / 2)) / pitch + margin, (y + (pitch / 2)) / pitch + margin)

let to_layout ~pitch ~margin (c, r) = ((c - margin) * pitch, (r - margin) * pitch)

let size ~pitch ~margin placement =
  let w = Placer.Placement.width placement in
  let h = Placer.Placement.height placement in
  ((w / pitch) + 1 + (2 * margin), (h / pitch) + 1 + (2 * margin))

let index ~cols (c, r) = (r * cols) + c
let point ~cols i = (i mod cols, i / cols)
