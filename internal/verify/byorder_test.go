package verify_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/dataset"
	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/semrules"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
	"github.com/duoquest/duoquest/internal/verify"
)

// TestByOrderAskAgreesOnSpiderTasks runs the dual-specification requests
// of enumerate's TestSpiderCandidatesGolden — every third Spider-dev task,
// the full TSQ drawn from seed 1+i, ten candidates under a 3000-state cap,
// default rules and the lexical model, one verification cache per database
// — and checks that every by-order question the search asks gets the same
// answer and error on the stream as from the whole result.
func TestByOrderAskAgreesOnSpiderTasks(t *testing.T) {
	stride := 3
	if testing.Short() {
		stride = 24
	}
	var (
		mu     sync.Mutex
		asked  int
		differ []string
	)
	restore := verify.CrossCheckByOrder(func(q *sqlir.Query, sk *tsq.TSQ, got, want bool, gerr, werr error) {
		mu.Lock()
		defer mu.Unlock()
		asked++
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			differ = append(differ, fmt.Sprintf("%s under %s: streamed %v (%v), whole result %v (%v)", q, sk, got, gerr, want, werr))
		}
	})
	defer restore()

	searchSpiderDual(t, stride)
	if asked == 0 {
		t.Fatal("no by-order question was asked")
	}
	for _, d := range differ {
		t.Error(d)
	}
	t.Logf("%d by-order questions, %d disagreements", asked, len(differ))
}

// searchSpiderDual runs the dual-specification requests of enumerate's
// TestSpiderCandidatesGolden — every third Spider-dev task, the full TSQ
// drawn from seed 1+i, ten candidates under a 3000-state cap, default rules
// and the lexical model, one verification cache per database — keeping the
// tasks whose index is a multiple of stride (3: all of them).
func searchSpiderDual(t *testing.T, stride int) {
	t.Helper()
	all := dataset.SpiderDev().Tasks
	caches := map[*storage.Database]*verify.Cache{}
	for i := 0; i < len(all); i += 3 {
		if i%stride != 0 {
			continue
		}
		task := all[i]
		sk, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, 1+int64(i/3))
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		if caches[task.DB] == nil {
			caches[task.DB] = verify.NewCache(task.DB)
		}
		v := verify.NewWithCache(task.DB, semrules.Default(), sk, task.Literals, caches[task.DB])
		en := enumerate.New(task.DB, guidance.NewLexicalModel(), v, enumerate.Options{
			MaxCandidates: 10, MaxStates: 3000,
		})
		if _, err := en.Enumerate(context.Background(), task.NLQ, task.Literals, nil); err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
	}
}

// TestByRowKeysAreTheQuestions walks the same requests and checks every
// by-row check of theirs: the memo key hashed in place from the partial
// query and the tuple is existsKey of the question built in full, and the
// answer — memoized or not — is a fresh probe's.
func TestByRowKeysAreTheQuestions(t *testing.T) {
	stride := 3
	if testing.Short() {
		stride = 24
	}
	var (
		mu     sync.Mutex
		checks int
		differ []string
	)
	restore := verify.CrossCheckByRow(func(eq sqlexec.ExistsQuery, keyed, answer, fresh bool, ferr error) {
		mu.Lock()
		defer mu.Unlock()
		checks++
		switch {
		case !keyed:
			differ = append(differ, fmt.Sprintf("%+v: the in-place key is not existsKey of the question", eq))
		case ferr != nil || answer != fresh:
			differ = append(differ, fmt.Sprintf("%+v: answered %v, a fresh probe %v (%v)", eq, answer, fresh, ferr))
		}
	})
	defer restore()
	searchSpiderDual(t, stride)
	if checks == 0 {
		t.Fatal("no by-row check was made")
	}
	for _, d := range differ {
		t.Error(d)
	}
	t.Logf("%d by-row checks, %d disagreements", checks, len(differ))
}

// TestSearchesShareAVerifier runs two searches at once through one Verifier
// and one Cache — sharing the memos, the executor handle and the asked
// sinks and matchers by-order verification reuses — on every 8th task of
// searchSpiderDual's, and checks that each returns what two sequential
// runs through their own Verifier and Cache do.
func TestSearchesShareAVerifier(t *testing.T) {
	all := dataset.SpiderDev().Tasks
	for i := 0; i < len(all); i += 3 * 8 {
		task := all[i]
		sk, err := dataset.SynthesizeTSQ(task, dataset.DetailFull, 1+int64(i/3))
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		search := func(v *verify.Verifier) string {
			en := enumerate.New(task.DB, guidance.NewLexicalModel(), v, enumerate.Options{
				MaxCandidates: 10, MaxStates: 3000,
			})
			res, err := en.Enumerate(context.Background(), task.NLQ, task.Literals, nil)
			if err != nil {
				return "error: " + err.Error()
			}
			out := fmt.Sprintf("%d states:", res.States)
			for _, c := range res.Candidates {
				out += fmt.Sprintf(" %s (%.6g)", c.Query.Canonical(), c.Confidence)
			}
			return out
		}
		verifier := func() *verify.Verifier {
			return verify.NewWithCache(task.DB, semrules.Default(), sk, task.Literals, verify.NewCache(task.DB))
		}
		want := search(verifier())
		if again := search(verifier()); again != want {
			t.Fatalf("%s: two sequential runs differ:\n%s\n%s", task.ID, want, again)
		}
		shared := verifier()
		var got [2]string
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = search(shared)
			}()
		}
		wg.Wait()
		for g, out := range got {
			if out != want {
				t.Errorf("%s: search %d sharing a verifier returned\n%s\nwant\n%s", task.ID, g, out, want)
			}
		}
	}
}
