package main

import (
	"fmt"
	"math/rand"
	"time"

	"plabi/internal/core"
	"plabi/internal/etl"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// Everything a run feeds the program is generated here from --seed,
// before any timed region: the source data, the request sequences and
// the delta batches.

// dataConfig sizes the synthetic healthcare dataset the way
// plabi.OpenHealthcare does, so a benchmark engine and a plabid tenant
// built from the same seed and size hold the same data.
func dataConfig(seed int64, prescriptions int) workload.Config {
	cfg := workload.DefaultConfig(seed)
	cfg.Prescriptions = prescriptions
	cfg.Patients = prescriptions / 10
	return cfg
}

// generate builds the dataset for a seed and size.
func generate(seed int64, prescriptions int) (*workload.Dataset, error) {
	ds, err := workload.Generate(dataConfig(seed, prescriptions))
	if err != nil {
		return nil, fmt.Errorf("generate %d prescriptions: %w", prescriptions, err)
	}
	return ds, nil
}

// subSeed derives an independent seed for one use of the run seed.
func subSeed(seed int64, use string) int64 {
	h := int64(1469598103934665603)
	for _, c := range use {
		h = (h ^ int64(c)) * 1099511628211
	}
	return seed*7919 + h
}

// consumers are the consumers every read is made for: the roles and
// purposes the standard reports are delivered under, so some pairs
// render and some are refused.
var consumers = []report.Consumer{
	{Name: "bench-analyst-q", Role: "analyst", Purpose: "quality"},
	{Name: "bench-auditor-q", Role: "auditor", Purpose: "quality"},
	{Name: "bench-analyst-r", Role: "analyst", Purpose: "reimbursement"},
}

// readKey is one (report, consumer) pair.
type readKey struct {
	report string
	c      report.Consumer
}

func (k readKey) String() string { return k.report + "/" + k.c.Name }

// pairs lists every (report, consumer) pair over the given reports.
func pairs(reports []string) []readKey {
	var out []readKey
	for _, id := range reports {
		for _, c := range consumers {
			out = append(out, readKey{id, c})
		}
	}
	return out
}

// standardReportIDs are the ids of the scenario's report portfolio.
func standardReportIDs() []string {
	var ids []string
	for _, d := range core.StandardReports() {
		ids = append(ids, d.ID)
	}
	return ids
}

// readSequence lists at least n reads in blocks that each hold every key
// once, in seeded order, so any run reads the keys in equal shares and
// the seed changes only the order.
func readSequence(seed int64, keys []readKey, n int) []readKey {
	rng := rand.New(rand.NewSource(seed))
	var out []readKey
	for len(out) < n {
		for _, i := range rng.Perm(len(keys)) {
			out = append(out, keys[i])
		}
	}
	return out
}

// delta is one generated delta batch.
type delta struct {
	batch etl.Batch
	// correction marks an update-and-delete batch (the rebuilt path);
	// the others are append batches (the incremental path).
	correction bool
}

// correctionEvery fixes the batch mix: one batch in every five is a
// correction, at a seeded position, so every stream and burst holds
// exactly 20% corrections.
const correctionEvery = 5

// deltaStream generates n delta batches against a dataset whose
// prescriptions table has rows rows when the first batch applies.
// Append batches insert ten prescriptions of existing patients and two
// dirty family-doctor references for entity resolution; correction
// batches update one prescription and delete another.
func deltaStream(seed int64, ds *workload.Dataset, rows, n int) []delta {
	rng := rand.New(rand.NewSource(seed))
	var doctors []relation.Value
	seen := map[string]bool{}
	for _, row := range ds.Prescriptions.Rows {
		if v := row[2]; !v.IsNull() && !seen[v.String()] {
			seen[v.String()] = true
			doctors = append(doctors, v)
		}
	}
	start := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	newRx := func(id int64) relation.Row {
		return relation.Row{
			relation.Int(id),
			relation.Str(ds.PatientNames[rng.Intn(len(ds.PatientNames))]),
			doctors[rng.Intn(len(doctors))],
			relation.Str(ds.DrugNames[rng.Intn(len(ds.DrugNames))]),
			relation.Str(ds.Diseases[rng.Intn(len(ds.Diseases))]),
			relation.Date(start.AddDate(0, 0, rng.Intn(3*365))),
		}
	}
	out := make([]delta, 0, n)
	corrAt := 0
	for i := 0; i < n; i++ {
		if i%correctionEvery == 0 {
			corrAt = i + rng.Intn(correctionEvery)
		}
		rx := etl.Delta{Source: "hospital", Table: "prescriptions"}
		if i == corrAt {
			upd := rng.Intn(rows)
			del := rng.Intn(rows - 1)
			if del >= upd {
				del++
			}
			rx.Updates = []etl.RowUpdate{{Row: upd, Vals: newRx(int64(20_000_000 + i))}}
			rx.Deletes = []int{del}
			rows--
			out = append(out, delta{batch: etl.Batch{Deltas: []etl.Delta{rx}}, correction: true})
			continue
		}
		for j := 0; j < 10; j++ {
			rx.Inserts = append(rx.Inserts, newRx(int64(10_000_000+i*100+j)))
		}
		rows += len(rx.Inserts)
		fd := etl.Delta{Source: "familydoctors", Table: "familydoctor"}
		for j := 0; j < 2; j++ {
			fd.Inserts = append(fd.Inserts, relation.Row{
				relation.Str(workload.Dirty(ds.PatientNames[rng.Intn(len(ds.PatientNames))], rng)),
				doctors[rng.Intn(len(doctors))],
			})
		}
		out = append(out, delta{batch: etl.Batch{Deltas: []etl.Delta{rx, fd}}})
	}
	return out
}
