package enumerate

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
	"github.com/duoquest/duoquest/internal/verify"
)

// The Spider harness reproduces the repository benchmark's spider_dual and
// spider_nlq inputs (bench/workload.go) from the layers' own functions:
// every third Spider-dev task, the full TSQ drawn from fixtureSeed+i, ten
// candidates under a 3000-state cap, default rules and the lexical model.
const (
	spiderStride     = 3
	spiderSeed       = 1
	spiderCandidates = 10
	spiderMaxStates  = 3000
)

type spiderTask struct {
	*dataset.Task
	sketch *tsq.TSQ // the full TSQ; nil is the NLQ-only request
}

var (
	spiderOnce sync.Once
	spiderList []spiderTask
	spiderErr  error
)

// spiderTasks returns the 197 benchmark tasks, built once per test binary.
func spiderTasks(tb testing.TB) []spiderTask {
	tb.Helper()
	spiderOnce.Do(func() {
		all := dataset.SpiderDev().Tasks
		for i := 0; i < len(all); i += spiderStride {
			sk, err := dataset.SynthesizeTSQ(all[i], dataset.DetailFull, spiderSeed+int64(len(spiderList)))
			if err != nil {
				spiderErr = fmt.Errorf("task %s: %w", all[i].ID, err)
				return
			}
			spiderList = append(spiderList, spiderTask{all[i], sk})
		}
	})
	if spiderErr != nil {
		tb.Fatal(spiderErr)
	}
	return spiderList
}

// spiderCaches shares one verification cache per database across requests,
// as a service shard does.
type spiderCaches map[*storage.Database]*verify.Cache

func (sc spiderCaches) of(db *storage.Database) *verify.Cache {
	if sc[db] == nil {
		sc[db] = verify.NewCache(db)
	}
	return sc[db]
}

// spiderRun is one benchmark request: dual sends the TSQ, otherwise the
// request is NLQ + literals only.
func spiderRun(tb testing.TB, st spiderTask, dual bool, caches spiderCaches) *Result {
	tb.Helper()
	var sketch *tsq.TSQ
	if dual {
		sketch = st.sketch
	}
	v := verify.NewWithCache(st.DB, semrules.Default(), sketch, st.Literals, caches.of(st.DB))
	en := New(st.DB, guidance.NewLexicalModel(), v, Options{
		MaxCandidates: spiderCandidates,
		MaxStates:     spiderMaxStates,
	})
	res, err := en.Enumerate(context.Background(), st.NLQ, st.Literals, nil)
	if err != nil {
		tb.Fatalf("%s: %v", st.ID, err)
	}
	return res
}

// candidateDigest hashes everything the search promises to keep bit-identical
// about one request: task id, then per candidate the canonical SQL, rank,
// confidence bits and the state count at emission.
func candidateDigest(id string, res *Result) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	str(id)
	for _, c := range res.Candidates {
		str(c.Query.Canonical())
		u64(uint64(c.Rank))
		u64(math.Float64bits(c.Confidence))
		u64(uint64(c.States))
	}
	return hex.EncodeToString(h.Sum(nil))
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/spider_candidates.golden from this build")

const goldenPath = "testdata/spider_candidates.golden"

func modeName(dual bool) string {
	if dual {
		return "dual"
	}
	return "nlq"
}

// TestSpiderCandidatesGolden pins the candidate lists of the 197 benchmark
// tasks, with and without the TSQ, to the digests recorded at the commit
// before partial queries became shared-structure and verification became
// inherited: the refactor must be the same search, candidate for candidate
// and bit for bit.
func TestSpiderCandidatesGolden(t *testing.T) {
	tasks := spiderTasks(t)
	if *updateGolden {
		var b strings.Builder
		caches := spiderCaches{}
		for _, dual := range []bool{true, false} {
			for _, st := range tasks {
				fmt.Fprintf(&b, "%s %s %s\n", modeName(dual), st.ID, candidateDigest(st.ID, spiderRun(t, st, dual, caches)))
			}
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var mode, id, digest string
		if _, err := fmt.Sscan(sc.Text(), &mode, &id, &digest); err != nil {
			t.Fatalf("golden line %q: %v", sc.Text(), err)
		}
		want[mode+" "+id] = digest
	}
	if len(want) != 2*len(tasks) {
		t.Fatalf("golden file has %d entries, want %d", len(want), 2*len(tasks))
	}

	stride := 1
	if testing.Short() {
		stride = 8
	}
	caches := spiderCaches{}
	for _, dual := range []bool{true, false} {
		for i := 0; i < len(tasks); i += stride {
			st := tasks[i]
			got := candidateDigest(st.ID, spiderRun(t, st, dual, caches))
			if got != want[modeName(dual)+" "+st.ID] {
				t.Errorf("%s %s: candidate list digest %s, recorded %s",
					modeName(dual), st.ID, got[:12], want[modeName(dual)+" "+st.ID][:12])
			}
		}
	}
}

// benchmarkSpider times one pass over the benchmark's tasks per iteration
// against warm shared caches, and reports
// the cost of one explored state — the unit GPQE's tractability argument is
// made in.
func benchmarkSpider(b *testing.B, dual bool) {
	tasks := spiderTasks(b)
	caches := spiderCaches{}
	for _, st := range tasks { // warm the memos and join caches
		spiderRun(b, st, dual, caches)
	}
	states := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range tasks {
			states += spiderRun(b, st, dual, caches).States
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(states), "ns/state")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(states), "B/state")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(states), "allocs/state")
}

func BenchmarkEnumerateSpiderDual(b *testing.B) { benchmarkSpider(b, true) }
func BenchmarkEnumerateSpiderNLQ(b *testing.B)  { benchmarkSpider(b, false) }
