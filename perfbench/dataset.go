package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/policydsl"
	"repro/internal/population"
	"repro/internal/privacy"
	"repro/internal/relational"
)

// Request bodies are split below the server's caps: 32 MiB for
// POST /v1/providers/batch and 8 MiB for POST /v1/load.
const (
	maxBatchBytes = 24 << 20
	maxCSVBytes   = 6 << 20
)

// The house policies the benchmark serves. Policy B widens one tuple of A
// (weight/research visibility third-party → world), so alternating swaps
// and the what-if of the next swap are the same one-tuple diff.
const (
	policyAName = "bench-a"
	policyBName = "bench-b"
	alpha       = 0.1
	table       = "records"
	keyCol      = "provider"
)

var dataCols = []string{"weight", "income", "age"}

func policyDSL(name string, weightResearchVis string) string {
	return `policy "` + name + `" {
  attr provider {
    tuple purpose=service visibility=house granularity=specific retention=year
  }
  attr weight {
    tuple purpose=service visibility=house granularity=specific retention=year
    tuple purpose=research visibility=` + weightResearchVis + ` granularity=partial retention=month
  }
  attr income {
    tuple purpose=service visibility=house granularity=partial retention=year
    tuple purpose=research visibility=third-party granularity=partial retention=month
  }
  attr age {
    tuple purpose=service visibility=house granularity=specific retention=year
  }
  sensitivity provider 2
  sensitivity weight 4
  sensitivity income 5
  sensitivity age 2
}
`
}

var (
	policyA = policyDSL(policyAName, "third-party")
	policyB = policyDSL(policyBName, "world")
)

// whatifBody is the POST /v1/whatif request evaluating the swap from the
// live policy to the other one: the one retargeted tuple.
func whatifBody(toB bool) []byte {
	vis := 3
	if toB {
		vis = 4
	}
	return []byte(fmt.Sprintf(`{"diff":{"retarget":[{"attribute":"weight","purpose":"research","visibility":%d,"granularity":2,"retention":3}]},"u":10,"t":1}`, vis))
}

// generatorConfig is the Westin population the providers are drawn from:
// one attribute per table column, each with the purposes the policies use.
func generatorConfig() population.Config {
	svc, res := privacy.Purpose("service"), privacy.Purpose("research")
	return population.Config{Attributes: []population.AttributeSpec{
		{Name: "provider", Sensitivity: 2, Purposes: []privacy.Purpose{svc}},
		{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{svc, res}},
		{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{svc, res}},
		{Name: "age", Sensitivity: 2, Purposes: []privacy.Purpose{svc}},
	}}
}

// dataset is one seeded population with its microdata, and the request
// bodies that load it over HTTP.
type dataset struct {
	prefs []*privacy.Prefs // index i is provider key keys[i]
	keys  []string
	rows  [][3]float64 // weight, income, age of provider i

	batches [][]byte // POST /v1/providers/batch bodies
	csvs    [][]byte // POST /v1/load bodies
}

func newDataset(n int, seed int64) (*dataset, error) {
	gen, err := population.NewGenerator(generatorConfig(), uint64(seed))
	if err != nil {
		return nil, err
	}
	d := &dataset{prefs: make([]*privacy.Prefs, n), keys: make([]string, n), rows: make([][3]float64, n)}
	rng := rand.New(rand.NewSource(seed))
	for i := range d.prefs {
		d.keys[i] = fmt.Sprintf("provider-%06d", i)
		d.prefs[i] = gen.Provider(d.keys[i]).Prefs
		d.rows[i] = randomRow(rng)
	}
	var batch bytes.Buffer
	for _, p := range d.prefs {
		block := renderProviders(p)
		if batch.Len()+len(block) > maxBatchBytes {
			d.batches = append(d.batches, bytes.Clone(batch.Bytes()))
			batch.Reset()
		}
		batch.WriteString(block)
	}
	d.batches = append(d.batches, bytes.Clone(batch.Bytes()))

	var csv bytes.Buffer
	for i := range d.keys {
		if csv.Len() == 0 {
			csv.WriteString(csvHeader)
		}
		appendCSVRow(&csv, d.keys[i], d.rows[i])
		if csv.Len() > maxCSVBytes {
			d.csvs = append(d.csvs, bytes.Clone(csv.Bytes()))
			csv.Reset()
		}
	}
	if csv.Len() > 0 {
		d.csvs = append(d.csvs, bytes.Clone(csv.Bytes()))
	}
	return d, nil
}

// dropBodies releases the setup bodies once the dataset is loaded, so the
// live heap measured later holds the server's state, not the generator's.
func (d *dataset) dropBodies() { d.batches, d.csvs = nil, nil }

func randomRow(rng *rand.Rand) [3]float64 {
	return [3]float64{
		float64(400+rng.Intn(1000)) / 10, // weight 40.0-139.9
		float64(10000 + 500*rng.Intn(380)),
		float64(18 + rng.Intn(72)),
	}
}

var csvHeader = keyCol + ",weight,income,age\n"

func appendCSVRow(b *bytes.Buffer, key string, r [3]float64) {
	b.WriteString(key)
	for _, v := range r {
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
	}
	b.WriteByte('\n')
}

// displayRow is the row as the server renders it (relational.Value.Display).
func displayRow(key string, r [3]float64) map[string]string {
	out := map[string]string{keyCol: key}
	for i, c := range dataCols {
		out[c] = relational.Float(r[i]).Display()
	}
	return out
}

func renderProviders(ps ...*privacy.Prefs) string {
	return policydsl.Render(&policydsl.Document{Scales: privacy.DefaultScales(), Providers: ps})
}
