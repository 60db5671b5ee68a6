package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Generator kinds understood by Generate.
const (
	// GenZipf draws configs from a Zipf-skewed popularity distribution with
	// Poisson arrivals at a constant rate — the steady-state "hot head,
	// long tail" workload.
	GenZipf = "zipf"
	// GenDiurnal modulates the arrival rate with a sinusoidal load curve
	// (day/night) over the same Zipf popularity.
	GenDiurnal = "diurnal"
	// GenFlash is GenZipf with a flash crowd: inside a window the rate
	// multiplies and most arrivals pile onto one crowd config.
	GenFlash = "flash"
)

// GeneratorSpec parameterizes Generate. The zero value of every field
// selects a documented default, so {Kind: "zipf", Seed: 1} is a complete
// spec. Given equal specs, Generate returns byte-identical workloads.
type GeneratorSpec struct {
	// Kind selects the generator: GenZipf, GenDiurnal or GenFlash.
	Kind string
	// Seed feeds every random draw. Same spec, same trace.
	Seed int64
	// Events is the arrival count (default 500).
	Events int
	// Configs is the distinct request-config population size (default 64).
	Configs int
	// Models are the model names configs cycle through (default: the
	// load generator's trio, all valid Table 1 names).
	Models []string
	// Policies are the scheduling policies configs cycle through
	// (default tic and critical-path).
	Policies []string
	// Rate is the mean arrival rate in requests/second (default 50).
	Rate float64
	// ZipfS is the Zipf skew exponent, > 1 (default 1.2; larger = hotter
	// head).
	ZipfS float64
	// DiurnalPeriod is the sinusoid period in seconds (default: the span
	// the events would cover at Rate, so a trace sees one full cycle).
	DiurnalPeriod float64
	// DiurnalDepth in [0, 1) scales the rate swing: rate(t) ranges over
	// Rate*(1±Depth) (default 0.8).
	DiurnalDepth float64
	// FlashStart/FlashDuration place the flash-crowd window in seconds
	// (defaults: the middle third of the trace's nominal span).
	FlashStart    float64
	FlashDuration float64
	// FlashBoost multiplies the arrival rate inside the window (default 5).
	FlashBoost float64
	// FlashFocus in [0, 1] is the probability an in-window arrival targets
	// the crowd config instead of the Zipf draw (default 0.85).
	FlashFocus float64
}

func (s GeneratorSpec) withDefaults() GeneratorSpec {
	if s.Events <= 0 {
		s.Events = 500
	}
	if s.Configs <= 0 {
		s.Configs = 64
	}
	if len(s.Models) == 0 {
		s.Models = []string{"AlexNet v2", "Inception v1", "ResNet-50 v1"}
	}
	if len(s.Policies) == 0 {
		s.Policies = []string{"tic", "critical-path"}
	}
	if s.Rate <= 0 {
		s.Rate = 50
	}
	if s.ZipfS <= 1 {
		s.ZipfS = 1.2
	}
	span := float64(s.Events) / s.Rate
	if s.DiurnalPeriod <= 0 {
		s.DiurnalPeriod = span
	}
	if s.DiurnalDepth <= 0 {
		s.DiurnalDepth = 0.8
	}
	if s.DiurnalDepth >= 1 {
		s.DiurnalDepth = 0.99
	}
	if s.FlashDuration <= 0 {
		s.FlashStart, s.FlashDuration = span/3, span/3
	}
	if s.FlashBoost <= 1 {
		s.FlashBoost = 5
	}
	if s.FlashFocus <= 0 || s.FlashFocus > 1 {
		s.FlashFocus = 0.85
	}
	return s
}

// Generate produces a deterministic synthetic workload trace from the
// spec: a seeded config population (model × policy × cluster size, each
// with a fixed pseudo response cost in [2 KiB, 64 KiB)), Poisson arrivals
// whose rate follows the kind's load curve, and Zipf-skewed config
// popularity.
func Generate(spec GeneratorSpec) (*Workload, error) {
	spec = spec.withDefaults()
	kind := strings.ToLower(strings.TrimSpace(spec.Kind))
	switch kind {
	case GenZipf, GenDiurnal, GenFlash:
	default:
		return nil, fmt.Errorf("trace: unknown generator %q (known: %s, %s, %s)",
			spec.Kind, GenZipf, GenDiurnal, GenFlash)
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	configs := makeConfigs(spec, rng)
	zipf := rand.NewZipf(rng, spec.ZipfS, 1, uint64(len(configs)-1))

	// rate(t) is the instantaneous arrival rate for the kind's load curve;
	// arrivals are an inhomogeneous Poisson process approximated by scaling
	// each exponential gap by the rate at the gap's start.
	rate := func(t float64) float64 {
		switch kind {
		case GenDiurnal:
			return spec.Rate * (1 + spec.DiurnalDepth*math.Sin(2*math.Pi*t/spec.DiurnalPeriod))
		case GenFlash:
			if t >= spec.FlashStart && t < spec.FlashStart+spec.FlashDuration {
				return spec.Rate * spec.FlashBoost
			}
		}
		return spec.Rate
	}

	w := &Workload{
		Version:   WorkloadVersion,
		Name:      kind,
		Generator: kind,
		Seed:      spec.Seed,
		Events:    make([]Event, 0, spec.Events),
	}
	t := 0.0
	for i := 0; i < spec.Events; i++ {
		t += rng.ExpFloat64() / rate(t)
		c := int(zipf.Uint64())
		if kind == GenFlash &&
			t >= spec.FlashStart && t < spec.FlashStart+spec.FlashDuration &&
			rng.Float64() < spec.FlashFocus {
			c = 0 // the crowd config: everyone asks for the same thing
		}
		e := configs[c]
		e.T = t
		w.Events = append(w.Events, e)
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("trace: generated workload invalid: %w", err)
	}
	return w, nil
}

// makeConfigs builds the distinct request-config population. Config i
// cycles models fastest, then policies, then cluster sizes; further
// distinctness comes from the request seed, so the population is unbounded.
// Each config carries a fixed pseudo response cost drawn once here — the
// policy-visible size a size-aware cache ranks by.
func makeConfigs(spec GeneratorSpec, rng *rand.Rand) []Event {
	workerSizes := []int{1, 2, 4}
	lm, lp, lw := len(spec.Models), len(spec.Policies), len(workerSizes)
	configs := make([]Event, spec.Configs)
	for i := range configs {
		configs[i] = Event{
			Model:   spec.Models[i%lm],
			Policy:  spec.Policies[(i/lm)%lp],
			Workers: workerSizes[(i/(lm*lp))%lw],
			PS:      1,
			Seed:    spec.Seed + int64(i/(lm*lp*lw)),
			Cost:    2048 + rng.Int63n(64*1024-2048),
		}
	}
	return configs
}
