package textutil

import (
	"strconv"
	"unicode/utf8"
)

// FNV-1a, 64 bit (hash/fnv's New64a), written out so hashing a string copies
// nothing and a key can be hashed in pieces.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashAdd continues the FNV-1a state h over s: Hash64(a+b) is
// HashAdd(Hash64(a), b), with a+b never built.
func HashAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// HashAddLower continues the FNV-1a state h over strings.ToLower(s), with the
// lower-cased copy never built: runes are lower-cased one at a time, invalid
// bytes reading as U+FFFD, as strings.ToLower rewrites them.
func HashAddLower(h uint64, s string) uint64 {
	var enc [utf8.UTFMax]byte
	for j := 0; j < len(s); {
		if c := s[j]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			h = (h ^ uint64(c)) * fnvPrime64
			j++
			continue
		}
		r, w := decodeLower(s[j:])
		for _, c := range utf8.AppendRune(enc[:0], r) {
			h = (h ^ uint64(c)) * fnvPrime64
		}
		j += w
	}
	return h
}

// Hash64 returns the FNV-1a 64-bit hash of s. It is the single stable hash
// used across the repository (IDs, embeddings, seeded noise) so that results
// are reproducible run to run.
func Hash64(s string) uint64 { return HashAdd(fnvOffset64, s) }

// Hash01 maps s to a deterministic pseudo-uniform float in [0,1).
func Hash01(s string) float64 { return Unit(Hash64(s)) }

// SeededHash01 is Hash01(fmt.Sprintf("%d|%s", seed, key)) with key the
// concatenation of its parts, hashed in one pass without building the string.
func SeededHash01(seed uint64, key ...string) float64 {
	h := SeededHash64(seed)
	for _, k := range key {
		h = HashAdd(h, k)
	}
	return Unit(h)
}

// SeededHash64 is the FNV-1a state after "<seed>|": continued over a key with
// HashAdd and mapped through Unit, it gives SeededHash01 for a key hashed in
// as many pieces as the caller holds.
func SeededHash64(seed uint64) uint64 {
	var digits [20]byte
	return HashAdd(Hash64(string(strconv.AppendUint(digits[:0], seed, 10))), "|")
}

// Unit maps a 64-bit hash to [0,1) through its top 53 bits.
func Unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }
