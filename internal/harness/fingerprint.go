// Job canonicalization and content addressing. The simulator is
// deterministic by construction (the golden tests byte-diff -j1 vs -j8 and
// HTTP vs CLI), so a validated Job — after its defaults are applied — fully
// determines the rendered result bytes. Canonical() makes that determination
// explicit: it resolves every defaulted selection field to the concrete
// values RunJob would use and zeroes every field the experiment ignores, so
// two specs that run the same simulation compare (and hash) equal.
// Fingerprint() is a SHA-256 over a stable, length-delimited encoding of the
// canonical form plus a schema-version tag; the result cache in front of the
// job service keys on it.
//
// Field order is kept, not sorted: Pairs/Workloads/LLCSizes/SliceCycles
// order selects the row order of the rendered table, so it is semantically
// significant and two selections that differ only in order are different
// results. Nothing in Job is order-irrelevant today; if such a field is ever
// added, Canonical must sort it.
package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"timecache/internal/defense"
	"timecache/internal/workload"
)

// FingerprintSchemaVersion tags every fingerprint. Bump it whenever a
// result-affecting change lands — new defaults, workload profile changes,
// timing-model changes — so stale cache entries from older builds can never
// alias the new results. The golden tests catch unintended result drift; an
// intended drift is exactly when this constant must move.
//
// v2: the Defense seam and the matrix experiment — Job gained Defenses,
// Attacks, and AttackBits, the ablation gained the registry's runtime
// defense rows, and the encoding below appends the new fields for every
// experiment.
const FingerprintSchemaVersion = 2

// Default selections, shared by Canonical and RunJob so the canonical form
// can never diverge from what actually runs.

// defaultLLCSizes is the Fig. 10 default sweep ladder (512 KB – 4 MB).
func defaultLLCSizes() []int { return []int{512 << 10, 1 << 20, 2 << 20, 4 << 20} }

// defaultSliceLadder is the §VI-D bookkeeping-scaling default ladder.
func defaultSliceLadder() []uint64 { return []uint64{100_000, 200_000, 400_000, 800_000} }

// Security experiment defaults.
const (
	defaultKeyBits = 64
	defaultSeed    = 12345
)

// defaultAblationPair is the pair the ablation and the matrix run when none
// is named.
const defaultAblationPair = "2Xgobmk"

// defaultAttackBits is the matrix experiment's default secret length.
const defaultAttackBits = 32

// pairLabels projects a pair list back to its labels.
func pairLabels(pairs []workload.Pair) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p.Label
	}
	return out
}

// Canonical resolves the job's defaults and drops its ignored fields: the
// returned job selects exactly what RunJob would run, with every selection
// spelled out explicitly. Canonical is idempotent, and RunJob(j) and
// RunJob(j.Canonical()) produce byte-identical results (RunJob canonicalizes
// internally). The result is only meaningful for jobs that pass Validate.
func (j Job) Canonical() Job {
	c := Job{Experiment: j.Experiment}
	switch j.Experiment {
	case ExpTableII:
		pairs, _ := selectPairs(j.Pairs)
		c.Pairs = pairLabels(pairs)
	case ExpLLCSweep:
		pairs, _ := selectPairs(j.Pairs)
		if len(j.Pairs) == 0 {
			// Fig. 10 default: the same-benchmark pairs only.
			pairs = samePairs(pairs)
		}
		c.Pairs = pairLabels(pairs)
		c.LLCSizes = append([]int(nil), j.LLCSizes...)
		if len(c.LLCSizes) == 0 {
			c.LLCSizes = defaultLLCSizes()
		}
	case ExpAblation:
		c.Pairs = append([]string(nil), j.Pairs...)
		if len(c.Pairs) == 0 {
			c.Pairs = []string{defaultAblationPair}
		}
	case ExpParsec:
		c.Workloads = append([]string(nil), j.Workloads...)
		if len(c.Workloads) == 0 {
			c.Workloads = workload.ParsecNames()
		}
	case ExpBookkeeping:
		c.SliceCycles = append([]uint64(nil), j.SliceCycles...)
		if len(c.SliceCycles) == 0 {
			c.SliceCycles = defaultSliceLadder()
		}
	case ExpSecurity:
		c.KeyBits, c.Seed = j.KeyBits, j.Seed
		if c.KeyBits == 0 {
			c.KeyBits = defaultKeyBits
		}
		if c.Seed == 0 {
			c.Seed = defaultSeed
		}
	case ExpMatrix:
		c.Pairs = append([]string(nil), j.Pairs...)
		if len(c.Pairs) == 0 {
			c.Pairs = []string{defaultAblationPair}
		}
		c.Defenses = append([]string(nil), j.Defenses...)
		if len(c.Defenses) == 0 {
			c.Defenses = defense.Kinds()
		}
		c.Attacks = append([]string(nil), j.Attacks...)
		if len(c.Attacks) == 0 {
			c.Attacks = MatrixAttacks()
		}
		c.AttackBits, c.Seed = j.AttackBits, j.Seed
		if c.AttackBits == 0 {
			c.AttackBits = defaultAttackBits
		}
		if c.Seed == 0 {
			c.Seed = defaultSeed
		}
	}
	return c
}

// Fingerprint returns the job's content address: a hex SHA-256 over a
// stable, length-delimited encoding of the canonical form, prefixed with
// FingerprintSchemaVersion. Default-equivalent jobs ({table2} vs {table2,
// Pairs: <every pair spelled out>}) fingerprint equal; any result-affecting
// field change fingerprints different; the value is stable across processes
// and platforms. Fields an experiment ignores (e.g. Seed on table2) are
// dropped by Canonical and so cannot perturb the hash.
// The canonical bytes are appended into one stack-friendly buffer and hashed
// with sha256.Sum256 in a single call: no hash.Hash state, no Fprintf
// formatting machinery, no per-field writes. The byte stream is identical to
// the historical streaming encoding, so fingerprints (and therefore result
// caches) carry over.
func (j Job) Fingerprint() string {
	c := j.Canonical()
	buf := make([]byte, 0, 256)
	buf = append(buf, "timecache-job/"...)
	buf = strconv.AppendInt(buf, FingerprintSchemaVersion, 10)
	buf = append(buf, 0)
	buf = appendString(buf, c.Experiment)
	buf = appendStrings(buf, c.Pairs)
	buf = appendStrings(buf, c.Workloads)
	buf = appendInts(buf, c.LLCSizes)
	buf = appendUints(buf, c.SliceCycles)
	buf = append(buf, 'i')
	buf = strconv.AppendInt(buf, int64(c.KeyBits), 10)
	buf = append(buf, 0, 'u')
	buf = strconv.AppendUint(buf, c.Seed, 10)
	buf = append(buf, 0)
	// v2 fields (matrix); zero-valued on every other experiment, so their
	// encoding stays constant there.
	buf = appendStrings(buf, c.Defenses)
	buf = appendStrings(buf, c.Attacks)
	buf = append(buf, 'i')
	buf = strconv.AppendInt(buf, int64(c.AttackBits), 10)
	buf = append(buf, 0)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// FidelityTag returns a stable encoding of the result-affecting fidelity
// options — instruction budgets, LLC size, gate-level routing, and the
// slice override — with defaults resolved, so an unset field and its
// explicit default tag identically. Result-invariant options are excluded:
// Jobs (the golden tests prove -j1 and -j8 are byte-identical), Progress,
// Ctx, Pool, Spans, Now, Account, Telemetry, and CoherenceCheck (a debug
// cross-check that fails loudly rather than changing results). The job
// service folds this into its result-cache key alongside Fingerprint.
func (o Options) FidelityTag() string {
	o = o.withDefaults()
	return fmt.Sprintf("timecache-fidelity/%d:i%d:w%d:l%d:g%t:s%d",
		FingerprintSchemaVersion, o.InstrsPerProc, o.WarmupInstrs, o.LLCSize, o.GateLevel, o.SliceCycles)
}

// The encoding is length-delimited so adjacent fields can never alias
// ([]string{"ab","c"} vs []string{"a","bc"}, or a pair label bleeding into
// the workload list).

func appendString(buf []byte, s string) []byte {
	buf = append(buf, 's')
	buf = strconv.AppendInt(buf, int64(len(s)), 10)
	buf = append(buf, 0)
	return append(buf, s...)
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = append(buf, 'l')
	buf = strconv.AppendInt(buf, int64(len(ss)), 10)
	buf = append(buf, 0)
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

func appendInts(buf []byte, xs []int) []byte {
	buf = append(buf, 'l')
	buf = strconv.AppendInt(buf, int64(len(xs)), 10)
	buf = append(buf, 0)
	for _, x := range xs {
		buf = append(buf, 'i')
		buf = strconv.AppendInt(buf, int64(x), 10)
		buf = append(buf, 0)
	}
	return buf
}

func appendUints(buf []byte, xs []uint64) []byte {
	buf = append(buf, 'l')
	buf = strconv.AppendInt(buf, int64(len(xs)), 10)
	buf = append(buf, 0)
	for _, x := range xs {
		buf = append(buf, 'u')
		buf = strconv.AppendUint(buf, x, 10)
		buf = append(buf, 0)
	}
	return buf
}
