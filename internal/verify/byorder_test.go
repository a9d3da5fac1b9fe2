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
	all := dataset.SpiderDev().Tasks
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
	if asked == 0 {
		t.Fatal("no by-order question was asked")
	}
	for _, d := range differ {
		t.Error(d)
	}
	t.Logf("%d by-order questions, %d disagreements", asked, len(differ))
}
