package clock

// Rand is a small deterministic pseudo-random generator (xorshift64*)
// used by workload generators so that every experiment is reproducible
// from its seed alone. It is intentionally not cryptographic.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is remapped
// to a fixed non-zero constant because xorshift has an all-zero fixed
// point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("clock: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Bytes fills b with pseudo-random bytes.
func (r *Rand) Bytes(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}
