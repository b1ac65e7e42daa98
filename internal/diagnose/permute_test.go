package diagnose_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/wire"
)

// TestAnalyzeOrderIndependent is the property every merge and recovery
// path leans on: Analyze's result is a function of the input *sets*, not
// of the order records, reports and CFs arrive in. For every anomaly
// kind and a few seeds, 20 seeded shuffles of all three inputs (the
// flow→step index is rebuilt from the shuffled records, as a merged
// bundle does) must yield byte-identical diagnosis JSON.
func TestAnalyzeOrderIndependent(t *testing.T) {
	cfg := scenario.ConfigForScale(90) // vedrsim's default scale
	kinds := []scenario.AnomalyKind{
		scenario.Contention, scenario.Incast, scenario.PFCStorm,
		scenario.PFCBackpressure, scenario.Loop, scenario.LoadImbalance,
	}
	for _, kind := range kinds {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/s%d", kind, seed), func(t *testing.T) {
				cs, err := scenario.GenerateCase(kind, seed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, scenario.DefaultRunOptions(cfg))
				if err != nil {
					t.Fatal(err)
				}
				bundle := wire.NewBundle(res.Records, res.Reports, res.CFs)
				if len(bundle.Records) == 0 || len(bundle.Reports) == 0 || len(bundle.CFs) == 0 {
					t.Fatal("setup: scenario produced no diagnosis inputs")
				}
				want := diagnosisJSON(t, bundle)
				rng := rand.New(rand.NewSource(seed*100 + int64(kind)))
				for i := 0; i < 20; i++ {
					shuffled := &wire.Bundle{
						Records: append([]wire.StepRecord(nil), bundle.Records...),
						Reports: append([]wire.Report(nil), bundle.Reports...),
						CFs:     append([]wire.Flow(nil), bundle.CFs...),
					}
					shuffle(rng, shuffled.Records)
					shuffle(rng, shuffled.Reports)
					shuffle(rng, shuffled.CFs)
					if got := diagnosisJSON(t, shuffled); !bytes.Equal(got, want) {
						t.Fatalf("shuffle %d changed the diagnosis:\n%s\nvs\n%s", i, got, want)
					}
				}
			})
		}
	}
}

func shuffle[T any](rng *rand.Rand, s []T) {
	rng.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
}

func diagnosisJSON(t *testing.T, b *wire.Bundle) []byte {
	t.Helper()
	out, err := json.Marshal(wire.FromDiagnosis(b.Analyze()))
	if err != nil {
		t.Fatal(err)
	}
	return out
}
