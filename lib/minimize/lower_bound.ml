let witness man ?(cube_limit = 1000) ?(include_short_cube = true)
    (s : Ispec.t) =
  if Bdd.is_zero s.Ispec.c then
    invalid_arg "Lower_bound.witness: empty care set";
  let best = ref 0 in
  let best_cube = ref [] in
  let try_cube cube =
    let p = Bdd.Cube.of_cube man cube in
    let sz = Bdd.size man (Bdd.constrain man s.Ispec.f p) in
    if sz > !best then begin
      best := sz;
      best_cube := cube
    end
  in
  Bdd.Cube.iter_cubes ~limit:cube_limit s.Ispec.c try_cube;
  if include_short_cube then
    Option.iter try_cube (Bdd.Cube.short_cube s.Ispec.c);
  (!best, !best_cube)

let compute man ?cube_limit ?include_short_cube s =
  fst (witness man ?cube_limit ?include_short_cube s)
