package sim

import "tictac/internal/core"

// Positions returns the position table r compiles for s and memoizes on
// it: the table r's runs dispatch by.
func Positions(r *Runner, s *core.Schedule) ([]int32, error) { return r.positions(s) }
