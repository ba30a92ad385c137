// Package cluster is the squashd fleet tier: a router that speaks the
// daemon wire protocol on the front and fans requests out to N backend
// squashd instances, placed by content hash: rendezvous hashing over the
// serve result-key digest, so each backend's result LRU stays hot for its
// shard and a backend joining or leaving moves only ~1/N of the key space.
// Backends are health-checked (periodic stats probes), marked down after K
// consecutive failures, and failed requests re-route to the next-ranked
// live backend — safe because squash is deterministic and idempotent for a
// given (object, profile, config).
package cluster

import "sort"

// PolicyHash names rendezvous placement, the only routing policy. It is
// kept for the ledger benchmark module, which sets Config.Policy by name.
const PolicyHash = "hash"

// rank orders live (the backends eligible for new work) for one placement
// key, best first, into dst and returns it; the router tries them in order
// until one answers. It is rendezvous (highest-random-weight) hashing:
// every backend scores hash(backend, key) and the ranking is by descending
// score. Each key's ranking is stable under membership change everywhere
// except at the backends that joined or left — removing a backend moves
// exactly its own keys (they fall to their second-ranked backend), and
// adding one steals only the ~1/N of keys it now wins — which is what keeps
// the per-backend result LRUs hot across fleet changes. dst is scratch from
// the caller (avoids a per-request allocation); len(live) may be zero.
func rank(key [32]byte, live []*Backend, dst []*Backend) []*Backend {
	scores := make([]uint64, len(live))
	for i, b := range live {
		scores[i] = rendezvousScore(b.hashSeed, key)
	}
	// Sort indices by score (descending), tie-broken by backend address so
	// the ranking is total and deterministic.
	idx := make([]int, len(live))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return live[idx[a]].Addr < live[idx[b]].Addr
	})
	dst = dst[:0]
	for _, i := range idx {
		dst = append(dst, live[i])
	}
	return dst
}

// rendezvousScore mixes a backend's seed with the placement key: 64-bit
// FNV-1a over the key bytes, seeded per backend. FNV is not
// cryptographic, but placement only needs a stable, well-mixed total
// order per key.
func rendezvousScore(seed uint64, key [32]byte) uint64 {
	const prime64 = 1099511628211
	h := seed
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// fnv64a hashes a string (backend address → per-backend seed).
func fnv64a(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
