package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"timecache/internal/harness"
	"timecache/internal/stats"
)

// pinsJSON holds the pinned outputs of the in-process workloads, recorded
// with --update-pins at the commit that defined the benchmark.
//
//go:embed pins.json
var pinsJSON []byte

// jobPin pins one RunJob call's result table and resource counters.
type jobPin struct {
	// SHA256 is the hash of the whole CSV table, for jobs whose result does
	// not depend on the workload seed.
	SHA256 string `json:"sha256,omitempty"`
	// SHA256BySeed holds whole-table hashes for the pinned seeds of a job
	// whose table depends on the seed (the matrix's attack columns).
	SHA256BySeed map[string]string `json:"sha256_by_seed,omitempty"`
	// StableSHA256 hashes the seed-independent columns (StableColumns) of a
	// seed-dependent table; every seed must reproduce it.
	StableSHA256  string   `json:"stable_sha256,omitempty"`
	StableColumns []string `json:"stable_columns,omitempty"`
	// Resources are the job's ResourceAccount totals (seed-independent).
	Resources harness.Resources `json:"resources"`
}

func loadPins() (map[string]map[string]jobPin, error) {
	var p map[string]map[string]jobPin
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("parse pins.json: %w", err)
	}
	return p, nil
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// project keeps the columns of tab whose header is "defense" or starts with
// one of prefixes, rendered as CSV.
func project(tab *stats.Table, prefixes []string) string {
	var keep []int
	for i, h := range tab.Header {
		if h == "defense" || hasPrefix(h, prefixes...) {
			keep = append(keep, i)
		}
	}
	pick := func(row []string) string {
		cells := make([]string, len(keep))
		for i, k := range keep {
			cells[i] = row[k]
		}
		return strings.Join(cells, ",")
	}
	var b strings.Builder
	b.WriteString(pick(tab.Header) + "\n")
	for _, r := range tab.Rows {
		b.WriteString(pick(r) + "\n")
	}
	return b.String()
}

// check returns "" when tab matches the pin for seed, else what differs.
// A seed-dependent table is checked whole for the pinned seeds, and for
// every other seed on its seed-independent columns plus the range of its
// leaked-bits columns.
func (p jobPin) check(tab *stats.Table, seed uint64) string {
	got := sha(tab.CSV())
	if p.SHA256 != "" {
		if got != p.SHA256 {
			return fmt.Sprintf("sha256 %s, pinned %s", got, p.SHA256)
		}
		return ""
	}
	if want, ok := p.SHA256BySeed[strconv.FormatUint(seed, 10)]; ok && got != want {
		return fmt.Sprintf("sha256 %s, pinned %s for seed %d", got, want, seed)
	}
	if s := sha(project(tab, p.StableColumns)); s != p.StableSHA256 {
		return fmt.Sprintf("seed-independent columns sha256 %s, pinned %s", s, p.StableSHA256)
	}
	for i, h := range tab.Header {
		if !strings.HasPrefix(h, "bits-") {
			continue
		}
		for _, row := range tab.Rows {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil || v < 0 || v > float64(matrixAttackBits) {
				return fmt.Sprintf("%s = %q, want a number in [0, %d]", h, row[i], matrixAttackBits)
			}
		}
	}
	return ""
}

// matrixAttackBits is the matrix job's default secret length, the upper
// bound of every leaked-bits cell.
const matrixAttackBits = 32

// updatePins runs one pass of an in-process workload for the default and
// the held-out seed and records its outputs in the pins file at path.
func updatePins(path, name string, cfg runConfig) error {
	var w simWorkload
	switch name {
	case specSweep.name:
		w = specSweep
	case defenseMulticore.name:
		w = defenseMulticore
	default:
		return fmt.Errorf("--update-pins: %s has no pinned outputs", name)
	}
	shapes, err := w.shapes()
	if err != nil {
		return err
	}
	all := map[string]map[string]jobPin{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	}
	seeds := []uint64{defaultSeed, heldOutSeed}
	passes := make([]passResult, len(seeds))
	for i, s := range seeds {
		if passes[i], err = simPass(w, s, shapes, false); err != nil {
			return err
		}
	}
	pins := map[string]jobPin{}
	for _, j := range w.jobs(defaultSeed) {
		a, b := passes[0], passes[1]
		if a.resources[j.label] != b.resources[j.label] {
			return fmt.Errorf("%s resources differ between seeds: %+v vs %+v", j.label, a.resources[j.label], b.resources[j.label])
		}
		pin := jobPin{Resources: a.resources[j.label]}
		ta, tb := a.tables[j.label], b.tables[j.label]
		if ta.CSV() == tb.CSV() {
			pin.SHA256 = sha(ta.CSV())
		} else {
			pin.StableColumns = []string{"slowdown-"}
			pin.StableSHA256 = sha(project(ta, pin.StableColumns))
			if sha(project(tb, pin.StableColumns)) != pin.StableSHA256 {
				return fmt.Errorf("%s: seed-independent columns differ between seeds", j.label)
			}
			pin.SHA256BySeed = map[string]string{}
			for i, s := range seeds {
				pin.SHA256BySeed[strconv.FormatUint(s, 10)] = sha(passes[i].tables[j.label].CSV())
			}
		}
		pins[j.label] = pin
	}
	all[name] = pins
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
