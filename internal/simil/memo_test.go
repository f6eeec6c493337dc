package simil

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
	"spatialseq/internal/vectormath"
)

// attrSimOracle is the unfactored reference: the full cosine over the
// example dimension's attributes and the object's attributes.
func attrSimOracle(c *Context, dim int, pos int32) float64 {
	return vectormath.Cos(c.Ex.Attrs[dim], c.DS.Object(int(pos)).Attr)
}

// AttrSim without any memo must already match the full cosine bit-for-bit:
// the prenormed decomposition may not perturb a single result.
func TestAttrSimMatchesCosOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	c, _ := newCtx(t, rng, 3, 1.5)
	for d := 0; d < c.M; d++ {
		for pos := int32(0); pos < int32(c.DS.Len()); pos++ {
			if got, want := c.AttrSim(d, pos), attrSimOracle(c, d, pos); got != want {
				t.Fatalf("dim %d pos %d: AttrSim = %v, Cos = %v", d, pos, got, want)
			}
		}
	}
}

// fillAll fills the memo for every object of every dimension's category
// and returns how many cosines it stored.
func fillAll(c *Context) int64 {
	var n int64
	for d := 0; d < c.M; d++ {
		objs := c.DS.CategoryObjects(c.Ex.Categories[d])
		c.FillMemo(d, objs)
		n += int64(len(objs))
	}
	return n
}

// FillMemo stores exact cosines, returns the largest of the filled run,
// and leaves positions outside the dimension's category to the direct
// kernel.
func TestFillMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	c, _ := newCtx(t, rng, 3, 1.5)
	if c.Memoized() {
		t.Fatal("a fresh Context reports a memo")
	}
	for d := 0; d < c.M; d++ {
		objs := c.DS.CategoryObjects(c.Ex.Categories[d])
		want := math.Inf(-1)
		for _, pos := range objs {
			want = math.Max(want, attrSimOracle(c, d, pos))
		}
		if got := c.FillMemo(d, objs); got != want {
			t.Errorf("dim %d: FillMemo max = %v, want %v", d, got, want)
		}
	}
	if !c.Memoized() {
		t.Error("Memoized should report true after FillMemo")
	}
	for d := 0; d < c.M; d++ {
		for pos := int32(0); pos < int32(c.DS.Len()); pos++ {
			if got, want := c.AttrSim(d, pos), attrSimOracle(c, d, pos); got != want {
				t.Fatalf("dim %d pos %d: memoized AttrSim = %v, Cos = %v", d, pos, got, want)
			}
		}
	}
}

// A partial fill — one run of a category, or a pinned object alone —
// answers the filled entries from the table and the rest through the
// direct kernel, both exactly; an empty run reports -Inf.
func TestFillMemoPartialRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	ds := testutil.RandDataset(rng, 120, 3, 4, 100)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 30, params)
	cands := ds.CategoryObjects(q.Example.Categories[0])
	if len(cands) < 2 {
		t.Skip("too few candidates in dimension 0's category")
	}
	q.Example.Fixed = []query.FixedPoint{{Dim: 0, Obj: cands[0]}}
	q.Variant = query.CSEQFP
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	c := NewContext(ds, q)
	if got := c.FillMemo(1, nil); !math.IsInf(got, -1) {
		t.Errorf("empty fill = %v, want -Inf", got)
	}
	if got, want := c.FillMemo(0, cands[:1]), attrSimOracle(c, 0, cands[0]); got != want {
		t.Errorf("pinned fill = %v, want %v", got, want)
	}
	half := ds.CategoryObjects(q.Example.Categories[1])
	c.FillMemo(1, half[:len(half)/2])
	for d := 0; d < 2; d++ {
		for _, pos := range ds.CategoryObjects(q.Example.Categories[d]) {
			if got, want := c.AttrSim(d, pos), attrSimOracle(c, d, pos); got != want {
				t.Fatalf("dim %d pos %d: %v != %v", d, pos, got, want)
			}
		}
	}
}

// The memo is read-only once filled; concurrent lookups from many
// goroutines must be race-free (the suite runs under -race) and still
// exact.
func TestMemoSharedConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	c, _ := newCtx(t, rng, 3, 1.5)
	fillAll(c)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := 0; d < c.M; d++ {
				for pos := int32(0); pos < int32(c.DS.Len()); pos++ {
					if c.AttrSim(d, pos) != attrSimOracle(c, d, pos) {
						select {
						case errCh <- errMismatch:
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

var errMismatch = errText("concurrent AttrSim diverged from oracle")

type errText string

func (e errText) Error() string { return string(e) }

// A dataset object with an all-zero attribute vector exercises the
// zero-norm convention (cosine 0 against any non-zero example) through the
// memoized path.
func TestMemoZeroNormConvention(t *testing.T) {
	b := &dataset.Builder{}
	cat := b.Category("only")
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 6; i++ {
		attr := []float64{rng.Float64() + 0.1, rng.Float64() + 0.1}
		if i == 2 {
			attr = []float64{0, 0}
		}
		b.Add(dataset.Object{
			ID:       int64(i),
			Loc:      geo.Point{X: float64(i) * 3, Y: float64(i % 2)},
			Category: cat,
			Attr:     attr,
		})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	params := query.Params{K: 2, Alpha: 0.5, Beta: 5, GridD: 2, Xi: 4}
	q := testutil.RandQuery(rng, ds, 2, 10, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	c := NewContext(ds, q)
	fillAll(c)
	for pass := 0; pass < 2; pass++ {
		for d := 0; d < c.M; d++ {
			if got, want := c.AttrSim(d, 2), attrSimOracle(c, d, 2); got != want {
				t.Fatalf("pass %d dim %d: zero-attr AttrSim = %v, want %v", pass, d, got, want)
			}
			if got := c.AttrSim(d, 2); got != 0 {
				t.Fatalf("zero-attr cosine against non-zero example = %v, want 0", got)
			}
		}
	}
}

func TestCandidatesIntoMatchesCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	c, _ := newCtx(t, rng, 3, 1.5)
	all := make([]int32, c.DS.Len())
	for i := range all {
		all[i] = int32(i)
	}
	dst := make([]Cand, 0, c.DS.Len())
	for d := 0; d < c.M; d++ {
		want := c.Candidates(d, all)
		got := c.CandidatesInto(dst[:0], d, all)
		if len(got) != len(want) {
			t.Fatalf("dim %d: CandidatesInto len %d, Candidates len %d", d, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("dim %d entry %d: %+v != %+v", d, i, got[i], want[i])
			}
		}
	}
}

// With a sufficient reused buffer, steady-state candidate enumeration must
// not allocate.
func TestCandidatesIntoZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	c, _ := newCtx(t, rng, 3, 1.5)
	all := make([]int32, c.DS.Len())
	for i := range all {
		all[i] = int32(i)
	}
	dst := make([]Cand, 0, c.DS.Len())
	dst = c.CandidatesInto(dst, 0, all) // warm the buffer
	allocs := testing.AllocsPerRun(20, func() {
		dst = c.CandidatesInto(dst[:0], 0, all)
	})
	if allocs != 0 {
		t.Errorf("CandidatesInto allocated %v per run with a reused buffer", allocs)
	}
}

func benchContext(b *testing.B) *Context {
	b.Helper()
	rng := rand.New(rand.NewSource(62))
	ds := testutil.RandDataset(rng, 2000, 3, 8, 100)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 30, params)
	if err := q.Validate(ds); err != nil {
		b.Fatal(err)
	}
	return NewContext(ds, q)
}

var benchSimSink float64

func BenchmarkAttrSimDirect(b *testing.B) {
	c := benchContext(b)
	cands := c.DS.CategoryObjects(c.Ex.Categories[0])
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += c.AttrSim(0, cands[i%len(cands)])
	}
	benchSimSink = s
}

func BenchmarkAttrSimMemo(b *testing.B) {
	c := benchContext(b)
	fillAll(c)
	cands := c.DS.CategoryObjects(c.Ex.Categories[0])
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += c.AttrSim(0, cands[i%len(cands)])
	}
	benchSimSink = s
}

var benchCandSink []Cand

func BenchmarkCandidates(b *testing.B) {
	c := benchContext(b)
	all := make([]int32, c.DS.Len())
	for i := range all {
		all[i] = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var out []Cand
	for i := 0; i < b.N; i++ {
		out = c.Candidates(0, all)
	}
	benchCandSink = out
}

func BenchmarkCandidatesInto(b *testing.B) {
	c := benchContext(b)
	all := make([]int32, c.DS.Len())
	for i := range all {
		all[i] = int32(i)
	}
	dst := make([]Cand, 0, c.DS.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.CandidatesInto(dst[:0], 0, all)
	}
	benchCandSink = dst
}
