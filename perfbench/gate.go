package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"ilpec/internal/service"
)

// counters are one epoch's program work counts, keyed by name. For a
// fixed seed they must repeat exactly: across the epochs of a run,
// between traced and untraced epochs, and across runs (checkGateRecord).
type counters map[string]string

// gateCounters names the counts the determinism gate compares.
var gateCounters = []string{
	"solver_runs", "cache_hits", "cache_misses", "fleet_peek_hits",
	"instance_reuses", "instance_rebuilds", "relax_fast_paths",
	"journal_appends", "snapshots", "evictions", "rehydrations",
	"sum_sub_vars", "preserved_mean", "truncated_solves",
}

// serviceCounters folds the snapshots of one or more services (the
// nodes of a fleet) into counters.
func serviceCounters(snaps ...service.MetricsSnapshot) counters {
	var m service.MetricsSnapshot
	for _, s := range snaps {
		m.SolverRuns += s.SolverRuns
		m.CacheHits += s.CacheHits
		m.CacheMisses += s.CacheMisses
		m.ClusterPeekHits += s.ClusterPeekHits
		m.ClusterPeekMisses += s.ClusterPeekMisses
		m.InstanceReuses += s.InstanceReuses
		m.InstanceRebuilds += s.InstanceRebuilds
		m.InstanceRowsDelta += s.InstanceRowsDelta
		m.ReseparatedRows += s.ReseparatedRows
		m.RelaxFastPaths += s.RelaxFastPaths
		m.JournalAppends += s.JournalAppends
		m.JournalRetries += s.JournalRetries
		m.SnapshotsWritten += s.SnapshotsWritten
		m.Evictions += s.Evictions
		m.Rehydrations += s.Rehydrations
		m.TruncatedSolves += s.TruncatedSolves
		m.PresolveFixed += s.PresolveFixed
		m.CutsAdded += s.CutsAdded
		m.CutsReused += s.CutsReused
		m.ChangesQueued += s.ChangesQueued
		m.Batches += s.Batches
		m.Solves += s.Solves
	}
	i := func(v int64) string { return strconv.FormatInt(v, 10) }
	return counters{
		"solver_runs":       i(m.SolverRuns),
		"cache_hits":        i(m.CacheHits),
		"cache_misses":      i(m.CacheMisses),
		"fleet_peek_hits":   i(m.ClusterPeekHits),
		"fleet_peek_misses": i(m.ClusterPeekMisses),
		"instance_reuses":   i(m.InstanceReuses),
		"instance_rebuilds": i(m.InstanceRebuilds),
		"rows_delta":        i(m.InstanceRowsDelta),
		"reseparated_rows":  i(m.ReseparatedRows),
		"relax_fast_paths":  i(m.RelaxFastPaths),
		"journal_appends":   i(m.JournalAppends),
		"journal_retries":   i(m.JournalRetries),
		"snapshots":         i(m.SnapshotsWritten),
		"evictions":         i(m.Evictions),
		"rehydrations":      i(m.Rehydrations),
		"truncated_solves":  i(m.TruncatedSolves),
		"presolve_fixed":    i(m.PresolveFixed),
		"cuts_added":        i(m.CutsAdded),
		"cuts_reused":       i(m.CutsReused),
		"changes_queued":    i(m.ChangesQueued),
		"batches":           i(m.Batches),
		"solves":            i(m.Solves),
	}
}

// addResults adds the counts the benchmark derives from the answers.
func (c counters) addResults(rs []cycleResult, errs []error) {
	var subVars, subRows int64
	var pres []float64
	for i, r := range rs {
		if errs[i] != nil {
			continue
		}
		subVars += int64(r.subVars)
		subRows += int64(r.subRows)
		if r.batch {
			pres = append(pres, r.preserve)
		}
	}
	c["sum_sub_vars"] = strconv.FormatInt(subVars, 10)
	c["sum_sub_rows"] = strconv.FormatInt(subRows, 10)
	c["preserved_mean"] = strconv.FormatFloat(mean(pres), 'g', -1, 64)
}

func (c counters) int(name string) int64 {
	v, _ := strconv.ParseInt(c[name], 10, 64)
	return v
}

func (c counters) float(name string) float64 {
	v, _ := strconv.ParseFloat(c[name], 64)
	return v
}

// diff compares the gated counters; on a mismatch it names the first
// differing counter and both values.
func (c counters) diff(other counters) (name, a, b string, ok bool) {
	for _, k := range gateCounters {
		if c[k] != other[k] {
			return k, c[k], other[k], false
		}
	}
	return "", "", "", true
}

// checkGateRecord compares this run's counters, per script set, with
// the record earlier runs of the same program, workload, seed and size
// left in the work directory, and adds the sets it has no record of. The
// record is keyed by the program (cfg.program, a hash of the runner
// binary), so a rebuilt or changed program starts a record of its own and
// is never compared with another program's counts; a difference between
// runs of one program is nondeterminism.
func checkGateRecord(cfg config, bySet map[int]counters) error {
	path := gateRecordPath(cfg)
	dir := filepath.Dir(path)
	rec := map[string]counters{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("determinism gate: read %s: %w", path, err)
		}
	}
	grew := false
	for set, c := range bySet {
		key := strconv.Itoa(set)
		prev, ok := rec[key]
		if !ok {
			gated := counters{}
			for _, k := range gateCounters {
				gated[k] = c[k]
			}
			rec[key] = gated
			grew = true
			continue
		}
		if name, a, b, ok := prev.diff(c); !ok {
			return fmt.Errorf("determinism gate: counter %s = %s in an earlier run of this seed but %s now (script set %d)", name, a, b, set)
		}
	}
	if !grew {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("determinism gate: %w", err)
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("determinism gate: %w", err)
	}
	return os.Rename(tmp, path)
}

// gateRecordPath is where runs of cfg's program, workload, seed and
// size keep their determinism-gate record.
func gateRecordPath(cfg config) string {
	size := "full"
	if cfg.tiny {
		size = "tiny"
	}
	return filepath.Join(cfg.workDir, "gate", fmt.Sprintf("%s-seed%d-%s-%s.json", cfg.workload, cfg.seed, size, cfg.program))
}

// programID identifies the running program by a hash of its executable,
// so that gate records of different builds never meet.
func programID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// sortedKeys lists a counters map's keys in order.
func (c counters) sortedKeys() []string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
