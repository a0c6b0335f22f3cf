package main

// The three workloads and the seeded request streams that drive them.
// Why each workload exists, its mix and the layers it loads are written
// down in README.md; this file is the mechanism.
//
// A stream is a deterministic function of (workload, seed): the same
// seed yields byte-identical request bodies in the same order. ranad
// receives only these bodies. Two devices keep one run's mix equal to
// the next one's, so that seed-to-seed differences do not show up as
// noise in the end-to-end metrics:
//   - sweep requests come in rounds holding every network in fixed
//     proportion, in a seeded order;
//   - refresh intervals follow a golden-ratio (Kronecker) sequence per
//     network from a seeded offset, so every prefix of the stream
//     covers 45 µs – 1 ms evenly. Compile cost falls about fourfold
//     across that range, so a plain uniform draw over the hundred or so
//     requests of a short run would move the mean cost with the seed.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"rana/internal/models"
)

const (
	retentionSweep = "retention-sweep"
	axesSweep      = "axes-sweep"
	fleetCache     = "fleet-cache"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{retentionSweep, axesSweep, fleetCache}

// Refresh-interval range of the sweeps (the paper's Fig. 16 axis: the
// conventional 45 µs up to past the 734 µs tolerable retention time).
const (
	minIntervalNS = 45_000
	maxIntervalNS = 1_000_000
)

// freshDeadlineMS is the deadline of fleet-cache's never-seen requests:
// just under ranad's 200 ms degrade budget, so each is served by the
// cheap natural-tiling fallback with the most headroom before its
// deadline.
const freshDeadlineMS = 199

// zoo is the model zoo in the paper's order; sweepWeights gives each
// network's requests per sweep round. AlexNet compiles in a few ms while
// the other three overlap between ~5 and ~300 ms, so AlexNet is held to
// one request in ten: p50 then never falls in the gap between AlexNet's
// cluster and the rest. ResNet is the slowest network and its cost
// spreads widest across the interval range; at two in ten, p90 falls
// near ResNet's own median, where its latencies are dense, rather than
// in its sparse upper tail.
var (
	zoo          = models.Benchmarks()
	sweepWeights = []int{1, 3, 4, 2}
)

// reqKind says what a request exercises in ranad.
type reqKind uint8

const (
	kindSweep   reqKind = iota // full Stage-2 compile of a never-seen key
	kindPopular                // a key of fleet-cache's primed population
	kindFresh                  // fleet-cache's never-seen degraded schedule
	kindGolden                 // a zoo network at ranad's default options
	kindPrime                  // a population key primed during set-up
)

// request is one generated request plus what its response must show.
type request struct {
	ID       int
	Endpoint string
	Body     []byte
	Net      int // index into zoo
	Class    int // index into the workload's class table
	Kind     reqKind
	Key      int // population key (kindPopular), else -1
	Inline   bool
	Sched    *schedSpec // the schedule options, for schedule requests
}

// network returns the request's zoo network.
func (r *request) network() models.Network { return zoo[r.Net] }

// schedSpec is a /v1/schedule request's option set, kept apart from the
// body so the traced run can rebuild the same options for sched.
type schedSpec struct {
	Accelerator string
	Patterns    []string
	IntervalNS  int64
	Controller  string
	Search      string
	Traversal   string
	Mapping     string
	DeadlineMS  int64
}

// isDefault reports whether the spec leaves every option to ranad.
func (s *schedSpec) isDefault() bool {
	return len(s.Patterns) == 0 && s.Accelerator == "" && s.IntervalNS == 0 && s.Controller == "" &&
		s.Search == "" && s.Traversal == "" && s.Mapping == "" && s.DeadlineMS == 0
}

// degraded reports whether ranad's degradation ladder, at its default
// 200 ms degrade budget, serves the spec with the uniform fallback
// schedule.
func (s *schedSpec) degraded() bool { return s.DeadlineMS > 0 && s.DeadlineMS < 200 }

// Wire forms of the requests, as a client of ranad writes them.
type (
	layerWire struct {
		Name   string `json:"name"`
		Stage  string `json:"stage,omitempty"`
		N      int    `json:"n"`
		H      int    `json:"h"`
		L      int    `json:"l"`
		M      int    `json:"m"`
		K      int    `json:"k"`
		S      int    `json:"s"`
		P      int    `json:"p"`
		Groups int    `json:"groups,omitempty"`
	}
	networkWire struct {
		Name   string      `json:"name"`
		Layers []layerWire `json:"layers"`
	}
	optionsWire struct {
		Patterns          []string `json:"patterns,omitempty"`
		RefreshIntervalNS int64    `json:"refresh_interval_ns,omitempty"`
		Controller        string   `json:"controller,omitempty"`
		Search            string   `json:"search,omitempty"`
		Traversal         string   `json:"traversal,omitempty"`
		Mapping           string   `json:"mapping,omitempty"`
	}
	scheduleWire struct {
		Model       string       `json:"model,omitempty"`
		Network     *networkWire `json:"network,omitempty"`
		Accelerator string       `json:"accelerator,omitempty"`
		Options     *optionsWire `json:"options,omitempty"`
		DeadlineMS  int64        `json:"deadline_ms,omitempty"`
	}
	compileWire struct {
		Model   string       `json:"model,omitempty"`
		Network *networkWire `json:"network,omitempty"`
		Search  string       `json:"search,omitempty"`
	}
	evaluateWire struct {
		Design  string       `json:"design"`
		Model   string       `json:"model,omitempty"`
		Network *networkWire `json:"network,omitempty"`
	}
)

// spelled returns the network spelled out layer by layer, or nil for a
// request that names it.
func spelled(net models.Network, inline bool) (string, *networkWire) {
	if !inline {
		return net.Name, nil
	}
	w := &networkWire{Name: net.Name}
	for _, l := range net.Layers {
		w.Layers = append(w.Layers, layerWire{Name: l.Name, Stage: l.Stage, N: l.N, H: l.H, L: l.L,
			M: l.M, K: l.K, S: l.S, P: l.P, Groups: l.Groups})
	}
	return "", w
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a request: %v", err)) // closed structs of scalars
	}
	return b
}

// scheduleBody encodes a /v1/schedule request.
func scheduleBody(net models.Network, inline bool, s *schedSpec) []byte {
	w := scheduleWire{Accelerator: s.Accelerator, DeadlineMS: s.DeadlineMS}
	w.Model, w.Network = spelled(net, inline)
	o := optionsWire{Patterns: s.Patterns, RefreshIntervalNS: s.IntervalNS, Controller: s.Controller,
		Search: s.Search, Traversal: s.Traversal, Mapping: s.Mapping}
	if len(o.Patterns) > 0 || o.RefreshIntervalNS != 0 || o.Controller != "" || o.Search != "" ||
		o.Traversal != "" || o.Mapping != "" {
		w.Options = &o
	}
	return mustJSON(w)
}

// stream yields a workload's requests in order.
type stream interface {
	next() *request
}

// intervals draws refresh intervals without repeats: per network, a
// golden-ratio sequence from a seeded offset over [min, max), rounded to
// a grid of the network's own (interval ≡ network index mod len(zoo)).
// So no two networks share an interval, and a network's first 20,000
// never repeat (TestIntervalsNeverRepeat). It keeps no record of what it
// drew, so its memory does not grow with the number of requests sent.
type intervals struct {
	offset []float64
	count  []int
}

func newIntervals(rng *rand.Rand) *intervals {
	iv := &intervals{offset: make([]float64, len(zoo)), count: make([]int, len(zoo))}
	for i := range iv.offset {
		iv.offset[i] = rng.Float64()
	}
	return iv
}

// next returns network net's next interval in ns.
func (iv *intervals) next(net int) int64 {
	const invPhi = 0.6180339887498949
	x := iv.offset[net] + float64(iv.count[net])*invPhi
	iv.count[net]++
	x -= math.Floor(x)
	nets := int64(len(zoo))
	cells := (maxIntervalNS - minIntervalNS) / nets
	return minIntervalNS + nets*int64(x*float64(cells)) + int64(net)
}

// sweepStream is the stream of retention-sweep (axes=false) and
// axes-sweep (axes=true): every request a full compile at a refresh
// interval never requested before.
type sweepStream struct {
	axes  bool
	rng   *rand.Rand
	iv    *intervals
	round []int
	id    int
}

func newSweepStream(seed uint64, axes bool) *sweepStream {
	rng := rand.New(rand.NewPCG(seed, 0x5eed_5ee9))
	return &sweepStream{axes: axes, rng: rng, iv: newIntervals(rng)}
}

// sweepRound is the number of requests in one sweep round.
func sweepRound() int {
	n := 0
	for _, w := range sweepWeights {
		n += w
	}
	return n
}

func (s *sweepStream) next() *request {
	if len(s.round) == 0 {
		for net, w := range sweepWeights {
			for i := 0; i < w; i++ {
				s.round = append(s.round, net)
			}
		}
		s.rng.Shuffle(len(s.round), func(i, j int) { s.round[i], s.round[j] = s.round[j], s.round[i] })
	}
	net := s.round[0]
	s.round = s.round[1:]
	spec := &schedSpec{IntervalNS: s.iv.next(net)}
	if s.axes {
		spec.Traversal, spec.Mapping = "rtc", "all"
	}
	r := &request{ID: s.id, Endpoint: "/v1/schedule", Net: net, Class: net, Kind: kindSweep, Key: -1, Sched: spec,
		Body: scheduleBody(zoo[net], false, spec)}
	s.id++
	return r
}

// sweepClasses are the sweeps' breakdown classes: one per network.
func sweepClasses() []string {
	var out []string
	for _, n := range zoo {
		out = append(out, n.Name)
	}
	return out
}

// popKey is one key of fleet-cache's population.
type popKey struct {
	Endpoint string
	Net      int
	Sched    *schedSpec // /v1/schedule
	Search   string     // /v1/compile
	Design   string     // /v1/evaluate
}

func (k popKey) body(inline bool) []byte {
	net := zoo[k.Net]
	switch k.Endpoint {
	case "/v1/schedule":
		return scheduleBody(net, inline, k.Sched)
	case "/v1/compile":
		w := compileWire{Search: k.Search}
		w.Model, w.Network = spelled(net, inline)
		return mustJSON(w)
	default:
		w := evaluateWire{Design: k.Design}
		w.Model, w.Network = spelled(net, inline)
		return mustJSON(w)
	}
}

// Schedule option variants and Table IV designs of the population. Each
// is a distinct cache key per network.
var (
	popSchedules = []schedSpec{
		{},
		{IntervalNS: 45_000},
		{IntervalNS: 45_000, Controller: "conventional"},
		{IntervalNS: 200_000},
		{IntervalNS: 1_000_000},
		{Patterns: []string{"OD"}},
		{Patterns: []string{"WD"}},
		{Patterns: []string{"ID", "OD", "WD"}},
		{Traversal: "rtc"},
		{Mapping: "all"},
		{Search: "beam"},
		{Accelerator: "test"},
	}
	popCompiles = []string{"", "exhaustive", "beam"}
	popDesigns  = []string{"S+ID", "eD+ID", "eD+OD", "RANA (0)", "RANA (E-5)", "RANA*(E-5)"}
)

// rankedKeys returns fleet-cache's keys in Zipf rank order, by a fixed
// rule rather than a draw, so a seed varies the request sequence but
// never which keys are hot. Each network's keys alternate between the
// endpoints, schedule, compile, evaluate, each in the order of the
// tables above, until a table is used up. Round r of the ranking then
// takes every network's r-th key, the networks in the paper's order
// rotated by r. So ranks 1–4 are the zoo's golden keys (each network at
// the default schedule options), ranks 5–8 its default compiles and
// ranks 9–12 its S+ID evaluations.
func rankedKeys() []popKey {
	var perNet [][]popKey
	for net := range zoo {
		var sch, cmp, ev []popKey
		for i := range popSchedules {
			sch = append(sch, popKey{Endpoint: "/v1/schedule", Net: net, Sched: &popSchedules[i]})
		}
		for _, s := range popCompiles {
			cmp = append(cmp, popKey{Endpoint: "/v1/compile", Net: net, Search: s})
		}
		for _, d := range popDesigns {
			ev = append(ev, popKey{Endpoint: "/v1/evaluate", Net: net, Design: d})
		}
		var keys []popKey
		for len(sch)+len(cmp)+len(ev) > 0 {
			for _, t := range []*[]popKey{&sch, &cmp, &ev} {
				if len(*t) > 0 {
					keys = append(keys, (*t)[0])
					*t = (*t)[1:]
				}
			}
		}
		perNet = append(perNet, keys)
	}
	var out []popKey
	for r := range perNet[0] {
		for i := range zoo {
			out = append(out, perNet[(r+i)%len(zoo)][r])
		}
	}
	return out
}

// fleet-cache's mix. No trace of ranad's traffic exists, so all three
// are assumptions, chosen as README.md explains:
//   - zipfExponent: the classic Zipf law over the population ranks; the
//     hottest key then draws 20% of population requests, the coldest
//     0.24%.
//   - inlineShare: the share of population requests that spell their
//     network out layer by layer rather than name it.
//   - freshShare: the share of never-seen degraded requests. Each evicts
//     one cache entry, and a population key is evicted only after 173
//     of them arrive between two requests for it; at 2% that is some
//     8,650 requests, twenty times the coldest key's mean gap.
const (
	zipfExponent = 1.0
	inlineShare  = 0.25
	freshShare   = 0.02
)

// population is fleet-cache's keys in rank order, each key's two request
// bodies (named, spelled out) and the Zipf CDF over the ranks. A run
// builds it once, before it reads its heap baseline, so the bodies are
// not counted in heap_mb.
type population struct {
	keys   []popKey
	bodies [][2][]byte
	cdf    []float64
}

func newPopulation() *population {
	keys := rankedKeys()
	p := &population{keys: keys, bodies: make([][2][]byte, len(keys)), cdf: make([]float64, len(keys))}
	sum := 0.0
	for i, k := range keys {
		p.bodies[i] = [2][]byte{k.body(false), k.body(true)}
		sum += 1 / math.Pow(float64(i+1), zipfExponent)
		p.cdf[i] = sum
	}
	for i := range p.cdf {
		p.cdf[i] /= sum
	}
	return p
}

// fleetStream is fleet-cache's stream: Zipf draws over the population,
// with never-seen degraded schedules interleaved.
type fleetStream struct {
	pop *population
	rng *rand.Rand
	iv  *intervals
	id  int
}

func newFleetStream(seed uint64, pop *population) *fleetStream {
	rng := rand.New(rand.NewPCG(seed, 0xf1ee7))
	return &fleetStream{pop: pop, rng: rng, iv: newIntervals(rng)}
}

// fleetClasses are fleet-cache's breakdown classes: endpoint × network ×
// spelling for the population, network for the never-seen requests.
func fleetClasses() []string {
	var out []string
	for _, ep := range []string{"schedule", "compile", "evaluate"} {
		for _, n := range zoo {
			out = append(out, ep+"/"+n.Name, ep+"/"+n.Name+"/inline")
		}
	}
	for _, n := range zoo {
		out = append(out, "fresh/"+n.Name)
	}
	return out
}

func fleetClass(ep string, net int, inline bool) int {
	base := map[string]int{"/v1/schedule": 0, "/v1/compile": 1, "/v1/evaluate": 2}[ep]
	c := (base*len(zoo) + net) * 2
	if inline {
		c++
	}
	return c
}

func (s *fleetStream) next() *request {
	if s.rng.Float64() < freshShare {
		return s.nextFresh()
	}
	u := s.rng.Float64()
	cdf := s.pop.cdf
	k := 0
	for k < len(cdf)-1 && cdf[k] < u {
		k++
	}
	return s.popular(k, s.rng.Float64() < inlineShare)
}

// popular returns a request for population key k.
func (s *fleetStream) popular(k int, inline bool) *request {
	key := s.pop.keys[k]
	body := s.pop.bodies[k][0]
	if inline {
		body = s.pop.bodies[k][1]
	}
	r := &request{ID: s.id, Endpoint: key.Endpoint, Net: key.Net, Class: fleetClass(key.Endpoint, key.Net, inline),
		Kind: kindPopular, Key: k, Inline: inline, Sched: key.Sched, Body: body}
	s.id++
	return r
}

// nextFresh returns the next never-seen degraded schedule request.
func (s *fleetStream) nextFresh() *request {
	net := s.rng.IntN(len(zoo))
	spec := &schedSpec{IntervalNS: s.iv.next(net), DeadlineMS: freshDeadlineMS}
	// The never-seen classes follow the population's 3 endpoints × 2
	// spellings × networks (fleetClasses).
	r := &request{ID: s.id, Endpoint: "/v1/schedule", Net: net, Class: 6*len(zoo) + net, Kind: kindFresh, Key: -1,
		Sched: spec, Body: scheduleBody(zoo[net], false, spec)}
	s.id++
	return r
}

// goldenRequests are the set-up's golden checks: each zoo network at
// ranad's default schedule options.
func goldenRequests() []*request {
	var out []*request
	for net := range zoo {
		spec := &schedSpec{}
		out = append(out, &request{ID: -1 - net, Endpoint: "/v1/schedule", Net: net, Kind: kindGolden, Key: -1,
			Sched: spec, Body: scheduleBody(zoo[net], false, spec)})
	}
	return out
}
