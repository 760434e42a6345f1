package sched

// vclock is a vector clock over thread ids. Index i holds the latest
// known logical time of thread i.
type vclock []uint32

// reset returns c cleared to n entries, reusing its storage.
func (c vclock) reset(n int) vclock {
	if cap(c) < n {
		return make(vclock, n)
	}
	c = c[:n]
	clear(c)
	return c
}

// copyOf returns an independent copy of c grown to at least n entries.
func (c vclock) copyOf(n int) vclock {
	if n < len(c) {
		n = len(c)
	}
	out := make(vclock, n)
	copy(out, c)
	return out
}

// at returns c[i], treating missing entries as zero.
func (c vclock) at(i int) uint32 {
	if i < len(c) {
		return c[i]
	}
	return 0
}

// join merges other into c element-wise (c = c ⊔ other), growing c as
// needed, and returns the (possibly reallocated) result.
func (c vclock) join(other vclock) vclock {
	if len(other) > len(c) {
		c = c.copyOf(len(other))
	}
	for i := range other {
		if other[i] > c[i] {
			c[i] = other[i]
		}
	}
	return c
}

// leq reports whether c happens-before-or-equals other (∀i: c[i] ≤ other[i]).
func (c vclock) leq(other vclock) bool {
	for i := range c {
		if c[i] > other.at(i) {
			return false
		}
	}
	return true
}

// tick increments thread i's component.
func (c vclock) tick(i int) vclock {
	if i >= len(c) {
		c = c.copyOf(i + 1)
	}
	c[i]++
	return c
}
