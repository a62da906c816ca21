package gateway

// Snapshot-locality-aware placement: rendezvous (highest-random-weight)
// hashing of the function name over the configured backends. Repeat
// invocations of one function rank the same backend first — the one
// that already holds its snapfile and warm page-cache state (§7.2) —
// and the ranking doubles as the standby order for snapshot
// replication. A backend's weight for a key depends on nothing but the
// two, so ownership does not depend on configuration order, removing a
// backend moves only the functions it ranked first, and adding one
// moves functions only to itself.

// preference ranks backends for key by hash64(address, key), highest
// first, and returns the top n (n <= 0: all of them). Element 0 is the
// sticky owner; the rest are the standby order used for replication,
// spillover and anti-entropy. The ranking allocates only its result.
func preference(backends []*Backend, key string, n int) []*Backend {
	if n <= 0 || n > len(backends) {
		n = len(backends)
	}
	out := make([]*Backend, 0, n)
	// Insertion into the top n, with their weights kept alongside; a
	// pool of up to 64 backends keeps the weights on the stack.
	var buf [64]uint64
	weights := buf[:0]
	for _, b := range backends {
		w := hash64(b.Addr, key)
		if len(out) == n {
			if w <= weights[n-1] {
				continue
			}
		} else {
			out, weights = append(out, nil), append(weights, 0)
		}
		i := len(out) - 1
		for ; i > 0 && weights[i-1] < w; i-- {
			out[i], weights[i] = out[i-1], weights[i-1]
		}
		out[i], weights[i] = b, w
	}
	return out
}

// hash64 is FNV-1a over the address, a NUL separator and the key,
// finished with murmur3's fmix64: FNV-1a alone avalanches poorly on
// short, similar inputs (addresses that differ in a port digit), which
// would skew ownership.
func hash64(addr, key string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint64(addr[i])) * prime
	}
	h *= prime // the separator byte, 0
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
