package parrt

import "patty/internal/obs"

// reorder restores stream order after a replicated segment
// (paper §2.2, OrderPreservation): when element e_{i+1} overtakes its
// predecessor e_i inside a replicated stage, the reorder buffer holds
// it back until e_i has been emitted. Sequence numbers are assigned by
// the implicit StreamGenerator stage, so the expected next sequence is
// exactly the count of elements already released.
//
// pending and held are the optional observability instruments (nil
// when the pipeline is uninstrumented): pending tracks the current
// number of held-back elements, held counts every out-of-order
// arrival — together the cost the OrderPreservation tuning parameter
// pays for its guarantee.
func reorder[T any](in chan seqItem[T], bufCap int, pending *obs.Gauge, held *obs.Counter) chan seqItem[T] {
	out := make(chan seqItem[T], bufCap)
	go func() {
		defer close(out)
		buf := make(map[uint64]seqItem[T])
		var next uint64
		for it := range in {
			if it.seq != next {
				buf[it.seq] = it
				held.Inc()
				pending.Set(int64(len(buf)))
				continue
			}
			out <- it
			next++
			for {
				buffered, ok := buf[next]
				if !ok {
					break
				}
				delete(buf, next)
				out <- buffered
				next++
			}
			pending.Set(int64(len(buf)))
		}
		// Drain any residue (possible only if the producer skipped
		// sequence numbers, which the stream generator never does;
		// kept for robustness against misuse).
		for len(buf) > 0 {
			if it, ok := buf[next]; ok {
				delete(buf, next)
				out <- it
			}
			next++
		}
		pending.Set(0)
	}()
	return out
}
