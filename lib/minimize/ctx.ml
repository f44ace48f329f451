type t = {
  man : Bdd.man;
  budget : Bdd.Budget.t option;
}

let make ?budget man = { man; budget }
let of_man man = { man; budget = None }
let man t = t.man
let budget t = t.budget
let with_budget budget t = { t with budget = Some budget }

let protect t k =
  match t.budget with
  | None -> k ()
  | Some b -> Bdd.with_budget t.man b k
