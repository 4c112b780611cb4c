package textutil

// CosineTokens returns the cosine similarity between the term-frequency
// vectors of the two token slices.
func CosineTokens(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	fa := make(map[string]float64, len(a))
	for _, t := range a {
		fa[t]++
	}
	fb := make(map[string]float64, len(b))
	for _, t := range b {
		fb[t]++
	}
	var dot, na, nb float64
	for t, c := range fa {
		na += c * c
		if cb, ok := fb[t]; ok {
			dot += c * cb
		}
	}
	for _, c := range fb {
		nb += c * c
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (sqrt(na) * sqrt(nb))
}

// Levenshtein returns the edit distance between a and b (unit costs).
//
// Matching prefixes and suffixes never contribute edits, so both are trimmed
// before the DP — near-identical strings (the common case for entity-variant
// comparison) reduce to a DP over just the differing middle. Pure-ASCII
// inputs take a byte-indexed path that needs no []rune conversions and at
// most one row allocation (none for short strings); mixed inputs fall back
// to the rune DP. All paths return identical distances.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if isASCII(a) && isASCII(b) {
		// Byte-wise trimming is safe here: for ASCII, bytes are runes.
		for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
			a, b = a[1:], b[1:]
		}
		for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
			a, b = a[:len(a)-1], b[:len(b)-1]
		}
		if len(a) == 0 {
			return len(b)
		}
		if len(b) == 0 {
			return len(a)
		}
		return levRow(len(a), len(b), func(i, j int) bool { return a[i] == b[j] })
	}
	ra, rb := []rune(a), []rune(b)
	for len(ra) > 0 && len(rb) > 0 && ra[0] == rb[0] {
		ra, rb = ra[1:], rb[1:]
	}
	for len(ra) > 0 && len(rb) > 0 && ra[len(ra)-1] == rb[len(rb)-1] {
		ra, rb = ra[:len(ra)-1], rb[:len(rb)-1]
	}
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	return levRow(len(ra), len(rb), func(i, j int) bool { return ra[i] == rb[j] })
}

// isASCII reports whether s contains only single-byte runes.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// levRow runs the single-row Wagner–Fischer DP over an la×lb grid, with eq
// comparing element i of the first sequence to element j of the second.
// Short second sequences use a stack buffer, so the whole distance
// computation is allocation-free.
func levRow(la, lb int, eq func(i, j int) bool) int {
	var buf [64]int
	var row []int
	if lb < len(buf) {
		row = buf[:lb+1]
	} else {
		row = make([]int, lb+1)
	}
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= la; i++ {
		prev := row[0] // D[i-1][j-1] as j advances
		row[0] = i
		for j := 1; j <= lb; j++ {
			cur := row[j] // D[i-1][j]
			cost := 1
			if eq(i-1, j-1) {
				cost = 0
			}
			row[j] = min3(cur+1, row[j-1]+1, prev+cost)
			prev = cur
		}
	}
	return row[lb]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// sqrt is a local Newton-iteration square root so that the package keeps a
// tiny dependency surface; accuracy is ample for similarity scores.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		z = (z + x/z) / 2
	}
	return z
}
