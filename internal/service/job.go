// Package service turns the Figure 2 reproduction into a long-running
// TPI-as-a-service daemon: an HTTP/JSON API over a bounded job queue
// with per-tenant round-robin fairness, a shared worker pool running
// supervised sweeps with per-job cancellation, live NDJSON span events
// re-emitted over SSE, and a content-addressed result cache (SHA-256 of
// the canonicalized circuit + flow config) with singleflight coalescing
// so concurrent identical submissions cost exactly one flow.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/flow"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// Submission limits. They bound what one request can make the daemon do,
// independent of the HTTP body-size cap.
const (
	maxTPLevels   = 16
	maxTenantLen  = 64
	maxNameLen    = 128
	maxSpecScale  = 2.0
	maxFlowWorker = 64
)

// CircuitSpec names the circuit of a job: either an inline ISCAS-style
// ".bench" netlist, or one of the paper's generated circuit profiles.
type CircuitSpec struct {
	// Bench is the circuit itself in ".bench" form (see cmd/benchgen for
	// producing one). Mutually exclusive with Spec.
	Bench string `json:"bench,omitempty"`
	// Name names a Bench-submitted circuit (default "bench").
	Name string `json:"name,omitempty"`
	// PeriodPS is the default clock period for Bench circuits whose DFF
	// lines carry no domain comment (default 10000 ps).
	PeriodPS float64 `json:"period_ps,omitempty"`

	// Spec selects a generated paper circuit (s38417c, wctrl1, p26909c,
	// and their aliases). Mutually exclusive with Bench.
	Spec string `json:"spec,omitempty"`
	// Scale shrinks or grows a Spec circuit (default 1.0 = paper size).
	Scale float64 `json:"scale,omitempty"`
}

// FlowConfig is the JSON-facing subset of flow.Config a job may set.
// Fields left zero inherit the Experiment preset (or the default preset:
// chains of at most 100 flops, 97% row utilization).
type FlowConfig struct {
	// Experiment selects a per-circuit preset by paper name ("s38417c",
	// "p26909c", ...), exactly like flow.ExperimentConfig.
	Experiment        string  `json:"experiment,omitempty"`
	MaxChains         int     `json:"max_chains,omitempty"`
	MaxChainLength    int     `json:"max_chain_length,omitempty"`
	TargetUtilization float64 `json:"target_utilization,omitempty"`
	SkipATPG          bool    `json:"skip_atpg,omitempty"`
	TimingOptRounds   int     `json:"timing_opt_rounds,omitempty"`
	// Workers bounds the levels in flight (0 = the server's default).
	// Results are bit-identical for every value, so Workers is excluded
	// from the cache key.
	Workers int `json:"workers,omitempty"`
	// ATPGBudgetMS bounds the ATPG effort per level; an expiring budget
	// truncates the run instead of failing it. Budgeted results depend on
	// wall-clock speed, so a job with a budget is never cached and never
	// coalesced with other submissions.
	ATPGBudgetMS int64 `json:"atpg_budget_ms,omitempty"`
}

// JobRequest is the POST /v1/jobs body: one circuit, one flow config,
// and the TP percentages to sweep.
type JobRequest struct {
	// Tenant buckets the job for queue fairness; jobs of different
	// tenants are dequeued round-robin, so one flooding tenant cannot
	// starve the others. Default "default".
	Tenant   string      `json:"tenant,omitempty"`
	Circuit  CircuitSpec `json:"circuit"`
	TPLevels []float64   `json:"tp_levels"`
	Flow     FlowConfig  `json:"flow"`
}

// compiled is a validated, executable form of a JobRequest: the parsed
// design, the resolved flow.Config, and the content-addressed cache key.
// A job answered from the request index has what its alias stores —
// tenant, src.name, levels, key and hit — and nothing else.
type compiled struct {
	tenant    string
	src       circuitSource // the circuit, checked; src.name is the design's name
	design    *netlist.Netlist
	cfg       flow.Config
	levels    []float64
	budgetMS  int64
	digest    requestDigest  // of the submission's body; zero for a replayed job
	hit       *encodedResult // the cached result the request index resolved to
	key       string
	baseKey   string // level-independent address: checkpoint key prefix
	circHash  string // circuit-only hash: the run archive's circuit= filter
	cfgHash   string // config-only hash: the run archive's config= filter
	bench     string // canonical .bench text (journal accepted records)
	preset    string // resolved experiment preset (pinned for replay)
	cacheable bool
	workers   int // requested per-flow workers (0 = server default)
}

// requestError is a client-side problem with a submission (HTTP 4xx).
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &requestError{msg: fmt.Sprintf(format, args...)}
}

// compileRequest validates req end to end and resolves it into an
// executable job: the circuit is parsed (or generated), the flow config
// preset is applied and validated, and the cache key is derived from the
// canonicalized circuit text plus the resolved config — so two requests
// that mean the same sweep hash identically regardless of field spelling,
// bench formatting, or worker count.
func compileRequest(req *JobRequest) (*compiled, error) {
	c := &compiled{tenant: strings.TrimSpace(req.Tenant)}
	if c.tenant == "" {
		c.tenant = "default"
	}
	if len(c.tenant) > maxTenantLen {
		return nil, badRequest("tenant name longer than %d bytes", maxTenantLen)
	}

	if len(req.TPLevels) == 0 {
		return nil, badRequest("tp_levels is empty (list the test-point percentages to sweep, e.g. [0,1,2])")
	}
	if len(req.TPLevels) > maxTPLevels {
		return nil, badRequest("tp_levels has %d entries, limit %d", len(req.TPLevels), maxTPLevels)
	}
	for _, tp := range req.TPLevels {
		if tp < 0 || tp > 100 {
			return nil, badRequest("tp_levels entry %g outside [0,100]", tp)
		}
	}
	c.levels = append([]float64(nil), req.TPLevels...)

	src, err := sourceOf(&req.Circuit)
	if err != nil {
		return nil, err
	}
	c.src = src
	// The circuit is built after its fields are checked and before the
	// flow fields are, so a request with several faults is refused for the
	// first of them in that order.
	if c.design, err = src.build(); err != nil {
		return nil, err
	}

	fc := req.Flow
	preset := src.preset
	if fc.Experiment != "" {
		preset = fc.Experiment
	}
	if fc.MaxChains < 0 || fc.MaxChainLength < 0 {
		return nil, badRequest("flow.max_chains %d and flow.max_chain_length %d must not be negative", fc.MaxChains, fc.MaxChainLength)
	}
	cfg := flow.ExperimentConfig(preset)
	if fc.MaxChains > 0 || fc.MaxChainLength > 0 {
		cfg.Scan.MaxChains = fc.MaxChains
		cfg.Scan.MaxChainLength = fc.MaxChainLength
	}
	if fc.TargetUtilization != 0 {
		cfg.Place.TargetUtilization = fc.TargetUtilization
	}
	cfg.SkipATPG = fc.SkipATPG
	cfg.TimingOptRounds = fc.TimingOptRounds
	if fc.Workers < 0 || fc.Workers > maxFlowWorker {
		return nil, badRequest("flow.workers %d outside [0,%d]", fc.Workers, maxFlowWorker)
	}
	if fc.ATPGBudgetMS < 0 {
		return nil, badRequest("flow.atpg_budget_ms negative")
	}
	c.workers = fc.Workers
	c.cfg = cfg
	// Validate at the level the flow itself will: TPPercent is checked
	// per level above, so probe with the first level filled in.
	probe := cfg
	probe.TPPercent = c.levels[0]
	if err := probe.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	c.preset = preset
	c.budgetMS = fc.ATPGBudgetMS
	c.cacheable = fc.ATPGBudgetMS == 0
	if err := c.address(); err != nil {
		return nil, err
	}
	return c, nil
}

// address canonicalizes the built design and derives the keys from it.
func (c *compiled) address() error {
	var bench bytes.Buffer
	if err := circuitgen.WriteBench(&bench, c.design); err != nil {
		return fmt.Errorf("service: canonicalizing circuit: %w", err)
	}
	c.bench = bench.String()
	c.key = keyFromBench(c.bench, &c.cfg, c.levels, c.budgetMS)
	// The base key drops the level list and budget: every level of every
	// sweep over the same circuit+config shares one checkpoint namespace,
	// so a resubmission with a different level mix still resumes the
	// levels it has in common with earlier runs.
	c.baseKey = keyFromBench(c.bench, &c.cfg, nil, 0)
	// The history hashes split the content address into its two halves,
	// so the run archive can answer "same circuit, any config" and "same
	// config, any circuit" queries independently. Levels are excluded:
	// `tracestat BASE CUR` aligns runs per (stage, tp) cell, so two
	// sweeps over different level mixes still compare on the levels they
	// share. The ATPG budget stays in the config hash — a budgeted run
	// is not comparable to an unbudgeted one.
	c.circHash = circuitHash(c.bench)
	c.cfgHash = configHash(&c.cfg, c.budgetMS)
	return nil
}

// requestDigest addresses a request by its bytes rather than its meaning:
// the key of the request index (cache.go).
type requestDigest [sha256.Size]byte

// digestBody is SHA-256 over a submission's body exactly as received.
// Everything a job is a function of is in those bytes: they decode to one
// request, which passes or fails the same checks and compiles to the same
// key every time.
func digestBody(body []byte) requestDigest {
	h := sha256.New()
	h.Write([]byte("tpid/request-body\n"))
	h.Write(body)
	var d requestDigest
	h.Sum(d[:0])
	return d
}

// circuitHash is the archived run's circuit identity: SHA-256
// over the canonical bench text. Its domain separator (and configHash's)
// stays at v1 when the cache key's moves on, so run history continues
// across a change of tables.
func circuitHash(bench string) string {
	h := sha256.Sum256([]byte("tpid/v1/circuit\n" + bench))
	return hex.EncodeToString(h[:])
}

// configHash is the archived run's config identity: SHA-256
// over the resolved config (level list excluded, ATPG budget included).
func configHash(cfg *flow.Config, budgetMS int64) string {
	h := sha256.Sum256(append([]byte("tpid/v1/config\n"), hashedConfigJSON(cfg, nil, budgetMS)...))
	return hex.EncodeToString(h[:])
}

// levelKey addresses one checkpointed level: the level-independent base
// key and the TP percentage.
func levelKey(baseKey string, pct float64) string {
	return baseKey + "/tp" + strconv.FormatFloat(pct, 'g', -1, 64)
}

// circuitSource is a request's circuit after every check that needs
// neither parsing nor generating it: what build needs, the design's name
// and the preset its config defaults to.
type circuitSource struct {
	bench  string // inline .bench text; "" for a generated circuit
	name   string
	period float64
	spec   circuitgen.Spec
	preset string
}

// sourceOf checks the request's circuit fields.
func sourceOf(cs *CircuitSpec) (circuitSource, error) {
	switch {
	case cs.Bench != "" && cs.Spec != "":
		return circuitSource{}, badRequest("circuit: set either bench or spec, not both")
	case cs.Bench != "":
		name := strings.TrimSpace(cs.Name)
		if name == "" {
			name = "bench"
		}
		if len(name) > maxNameLen {
			return circuitSource{}, badRequest("circuit.name longer than %d bytes", maxNameLen)
		}
		period := cs.PeriodPS
		if period == 0 {
			period = 10000
		}
		if period < 0 {
			return circuitSource{}, badRequest("circuit.period_ps negative")
		}
		return circuitSource{bench: cs.Bench, name: name, period: period, preset: "bench"}, nil
	case cs.Spec != "":
		spec, err := circuitgen.SpecByName(cs.Spec)
		if err != nil {
			return circuitSource{}, badRequest("circuit.spec: %v", err)
		}
		scale := cs.Scale
		if scale == 0 {
			scale = 1
		}
		if scale < 0 || scale > maxSpecScale {
			return circuitSource{}, badRequest("circuit.scale %g outside (0,%g]", scale, maxSpecScale)
		}
		if scale != 1 {
			spec = spec.Scale(scale)
		}
		return circuitSource{name: spec.Name, spec: spec, preset: spec.Name}, nil
	default:
		return circuitSource{}, badRequest("circuit: one of bench or spec is required")
	}
}

// build parses or generates the circuit.
func (src *circuitSource) build() (*netlist.Netlist, error) {
	lib := stdcell.Default()
	if src.bench != "" {
		n, err := circuitgen.ReadBench(strings.NewReader(src.bench), src.name, lib, src.period)
		if err != nil {
			return nil, badRequest("circuit.bench: %v", err)
		}
		return n, nil
	}
	n, err := circuitgen.Generate(src.spec, lib)
	if err != nil {
		return nil, fmt.Errorf("service: generating %s: %w", src.spec.Name, err)
	}
	return n, nil
}

// hashedConfig is the canonical form of everything that can change a
// job's result. Workers and tenant are deliberately absent: results are
// bit-identical for every worker count, and a tenant label must not
// split the cache.
type hashedConfig struct {
	MaxChains         int     `json:"max_chains"`
	MaxChainLength    int     `json:"max_chain_length"`
	SEFanoutLimit     int     `json:"se_fanout_limit"`
	TargetUtilization float64 `json:"target_utilization"`
	SkipATPG          bool    `json:"skip_atpg"`
	TimingOptRounds   int     `json:"timing_opt_rounds"`
	ATPGBudgetMS      int64   `json:"atpg_budget_ms"`
	TPLevels          []float64
}

// hashedConfigJSON is the hashedConfig of a resolved config as the keys
// hash it. SEFanoutLimit is the literal 0: the scan-enable fanout limit is
// a constant of package scan, not part of a request, and 0 is what every
// key has hashed, so keys and the results and checkpoints stored under
// them stay valid.
func hashedConfigJSON(cfg *flow.Config, levels []float64, budgetMS int64) []byte {
	cfgJSON, _ := json.Marshal(hashedConfig{ // fixed field set: cannot fail
		MaxChains:         cfg.Scan.MaxChains,
		MaxChainLength:    cfg.Scan.MaxChainLength,
		SEFanoutLimit:     0,
		TargetUtilization: cfg.Place.TargetUtilization,
		SkipATPG:          cfg.SkipATPG,
		TimingOptRounds:   cfg.TimingOptRounds,
		ATPGBudgetMS:      budgetMS,
		TPLevels:          levels,
	})
	return cfgJSON
}

// keyFromBench derives the content address of a request: SHA-256 over
// the canonical ".bench" text of the parsed design (WriteBench is a
// fixed point of ReadBench∘WriteBench, so formatting differences in the
// submitted text vanish) plus the resolved config and level list. Two
// requests with equal keys are guaranteed to produce byte-identical
// tables, which is what makes the result cache and singleflight sound.
// The domain tag is the version of the tables: it moves whenever a build
// produces different bytes for the same request (v2: PODEM's frontier
// tie-break; v3: the SAT residue pass and the scan ports), so results and
// level checkpoints an older build left in a data dir match nothing and
// age out.
func keyFromBench(bench string, cfg *flow.Config, levels []float64, budgetMS int64) string {
	h := sha256.New()
	h.Write([]byte("tpid/v3/circuit\n"))
	h.Write([]byte(bench))
	h.Write([]byte("\x00tpid/v3/config\n"))
	h.Write(hashedConfigJSON(cfg, levels, budgetMS))
	return hex.EncodeToString(h.Sum(nil))
}

// atpgDeadline converts a request's relative budget into the absolute
// flow deadline, at the moment the flow actually starts.
func atpgDeadline(budgetMS int64, now time.Time) time.Time {
	if budgetMS <= 0 {
		return time.Time{}
	}
	return now.Add(time.Duration(budgetMS) * time.Millisecond)
}
