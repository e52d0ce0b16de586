package experiment

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"
)

// digestValue folds v into h: floats by their IEEE-754 bit patterns,
// integers, bools and strings by value, slices and arrays with their
// length, maps in sorted key order, structs field by field (unexported
// fields included) and pointers and interfaces through to what they hold.
// Two values digest alike exactly when every reachable number agrees bit
// for bit.
func digestValue(h hash.Hash64, v reflect.Value) {
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		put(uint64(len(keys)))
		for _, k := range keys {
			digestValue(h, k)
			digestValue(h, v.MapIndex(k))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestValue(h, v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		digestValue(h, v.Elem())
	default:
		// Funcs and channels carry no published number; fold only
		// whether they are set.
		if v.IsNil() {
			put(0)
		} else {
			put(1)
		}
	}
}

// campaignDigest folds every published output of a campaign into one
// checksum: Figures 4–9, the error percentiles and the energy budget,
// then per run (ideal first, then each ADF run) its name and factor,
// both per-second count series, the per-region tallies, both RMSE
// series, the published quantiles, the per-kind RMSE accumulators, the
// final cluster count and the energy total.
func campaignDigest(res *Results) uint64 {
	h := fnv.New64a()
	for _, fig := range []any{
		res.Fig4(), res.Fig5(), res.Fig6(), res.Fig7(), res.Fig8(), res.Fig9(),
		res.Percentiles(), res.EnergyBudget(),
	} {
		digestValue(h, reflect.ValueOf(fig))
	}
	for _, r := range append([]*Run{res.Ideal}, res.ADF...) {
		tallies := func(g interface {
			Keys() []string
			Get(string) float64
		}) []float64 {
			var out []float64
			for _, k := range g.Keys() {
				out = append(out, float64(len(k)), g.Get(k))
			}
			return out
		}
		for _, part := range []any{
			r.Name, r.Factor,
			r.LUPerSecond.Series(), r.OfferedPerSecond.Series(),
			r.SentByRegion.Keys(), tallies(r.SentByRegion),
			r.OfferedByRegion.Keys(), tallies(r.OfferedByRegion),
			r.RMSENoLE.Series(), r.RMSEWithLE.Series(),
			r.QuantNoLE, r.QuantWithLE,
			r.RMSENoLEByKind, r.RMSEWithLEByKind,
			r.FinalClusters, r.Energy.Total(),
		} {
			digestValue(h, reflect.ValueOf(part))
		}
	}
	return h.Sum64()
}

// TestCampaignDigestPinned pins every published output of the paper
// campaign — the ideal run plus the ADF at 0.75, 1.00 and 1.25av — bit
// for bit across seeds 1–22, which cover the benchmark's seed ranges
// 1..16 and 7..22. Seeds 1 and 7 run the paper's full 1800 s; the other
// seeds a 120 s horizon. A reduced region-partition configuration with
// churn rides along. Each digest must be the same at campaign Workers 1,
// 2 and 4: the worker count bounds concurrency and never changes a
// result. Re-pin only on a deliberate semantics change.
func TestCampaignDigestPinned(t *testing.T) {
	type pin struct {
		name string
		cfg  Config
		want uint64
	}
	var pins []pin
	for seed := int64(1); seed <= 22; seed++ {
		c := DefaultConfig()
		c.Seed = seed
		if seed != 1 && seed != 7 {
			c.Duration = 120
		}
		pins = append(pins, pin{name: fmt.Sprintf("seed-%d", seed), cfg: c, want: campaignPins[seed-1]})
	}
	sharded := DefaultConfig()
	sharded.Seed = 3
	sharded.PerGroup = 10
	sharded.Duration = 120
	sharded.ShardWorkers = 2
	sharded.RNGMode = RNGKeyed
	sharded.Churn = &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.3}
	pins = append(pins, pin{name: "sharded-churn", cfg: sharded, want: shardedChurnPin})

	for _, workers := range []int{1, 2, 4} {
		for _, p := range pins {
			c := p.cfg
			c.Workers = workers
			res, err := c.Run()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", p.name, workers, err)
			}
			if got := campaignDigest(res); got != p.want {
				t.Errorf("%s workers=%d: campaign digest %#016x, pinned %#016x", p.name, workers, got, p.want)
			}
		}
	}
}

// campaignPins holds the campaign digests of seeds 1–22 in seed order.
var campaignPins = [22]uint64{
	0x1abeaad976f6c8e9, 0xf604e4586d011ab9, 0xeaae31e031d86b0a, 0xe1d771801a5abcaf,
	0x781adf01d79d9b1c, 0xf939f4ecd33dbf22, 0x70f64dea67602259, 0x85a799e7a5f2a718,
	0x555128fe0f8f39bb, 0x3a9eb21e27715cb0, 0xbe970f60bc3134db, 0xf6764e8df4320a89,
	0xb87ec60b40da92e1, 0x6b498cc9be0463eb, 0x77f99fdda64efce4, 0x2392335f4a94f3a4,
	0x015674ac698735a4, 0x80b9cad33c45dea7, 0xf4bb68dba6c5cc94, 0x15ba31f1829128f2,
	0xbe81b574fe7bb711, 0x2fb1046a5add183f,
}

// shardedChurnPin is the digest of the reduced region-partition churn
// campaign.
const shardedChurnPin = uint64(0x58f0d68e04659d7c)
