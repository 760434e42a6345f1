package sched

// ExploreBlocked is Explore that also returns the number of runs that
// ended sleep-blocked. Result has no such field: adding one would
// change every recorded exploration.
func ExploreBlocked(opt Options, body func(*World)) (Result, int) {
	e := newExplorer(opt)
	res := e.run(body)
	if e.por == nil {
		return res, 0
	}
	return res, e.por.blocked
}
