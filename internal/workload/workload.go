// Package workload synthesises the data streams the paper's motivation
// names — the "data deluge" of sensors, clicks and logs. All generators
// are deterministic given their seed, so experiments are reproducible.
// See DESIGN.md: these stand in for the production traces the paper (a
// vision piece) does not ship.
package workload

import (
	"fmt"
	"math/rand"

	"fungusdb/internal/tuple"
)

// Generator produces an endless stream of rows for one schema.
type Generator interface {
	// Schema describes the rows produced.
	Schema() *tuple.Schema
	// Next returns the next row. Rows always validate against Schema.
	Next() []tuple.Value
	// Name identifies the workload in reports.
	Name() string
}

// IoT simulates a fleet of sensors: each reading carries the device
// name, a per-device random-walk temperature, a battery level that
// drains slowly, and an alarm flag raised on temperature spikes.
type IoT struct {
	rng     *rand.Rand
	schema  *tuple.Schema
	temps   []float64
	battery []float64
	devices int
}

// NewIoT builds a sensor workload with the given fleet size.
func NewIoT(devices int, seed int64) *IoT {
	if devices <= 0 {
		panic("workload: device count must be positive")
	}
	g := &IoT{
		rng: rand.New(rand.NewSource(seed)),
		schema: tuple.MustSchema(
			tuple.Column{Name: "device", Kind: tuple.KindString},
			tuple.Column{Name: "temp", Kind: tuple.KindFloat},
			tuple.Column{Name: "battery", Kind: tuple.KindFloat},
			tuple.Column{Name: "alarm", Kind: tuple.KindBool},
		),
		temps:   make([]float64, devices),
		battery: make([]float64, devices),
		devices: devices,
	}
	for i := range g.temps {
		g.temps[i] = 15 + g.rng.Float64()*10
		g.battery[i] = 100
	}
	return g
}

// Name implements Generator.
func (g *IoT) Name() string { return "iot" }

// Schema implements Generator.
func (g *IoT) Schema() *tuple.Schema { return g.schema }

// Next implements Generator.
func (g *IoT) Next() []tuple.Value {
	d := g.rng.Intn(g.devices)
	g.temps[d] += g.rng.NormFloat64() * 0.5
	if g.rng.Intn(200) == 0 { // occasional spike
		g.temps[d] += 20
	}
	g.battery[d] -= g.rng.Float64() * 0.01
	if g.battery[d] < 0 {
		g.battery[d] = 100 // battery swapped
	}
	return []tuple.Value{
		tuple.String_(fmt.Sprintf("sensor-%03d", d)),
		tuple.Float(g.temps[d]),
		tuple.Float(g.battery[d]),
		tuple.Bool(g.temps[d] > 40),
	}
}

// Clickstream simulates web traffic: Zipf-distributed users and URLs
// with a dwell time in milliseconds and a conversion flag.
type Clickstream struct {
	rng    *rand.Rand
	schema *tuple.Schema
	users  *rand.Zipf
	urls   *rand.Zipf
}

// NewClickstream builds a click workload over the given population
// sizes. Skew follows Zipf(s=1.2), the classic web-traffic shape.
func NewClickstream(users, urls int, seed int64) *Clickstream {
	if users <= 0 || urls <= 0 {
		panic("workload: population sizes must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	return &Clickstream{
		rng: rng,
		schema: tuple.MustSchema(
			tuple.Column{Name: "user", Kind: tuple.KindString},
			tuple.Column{Name: "url", Kind: tuple.KindString},
			tuple.Column{Name: "dwell_ms", Kind: tuple.KindInt},
			tuple.Column{Name: "converted", Kind: tuple.KindBool},
		),
		users: rand.NewZipf(rng, 1.2, 1, uint64(users-1)),
		urls:  rand.NewZipf(rng, 1.2, 1, uint64(urls-1)),
	}
}

// Name implements Generator.
func (g *Clickstream) Name() string { return "clickstream" }

// Schema implements Generator.
func (g *Clickstream) Schema() *tuple.Schema { return g.schema }

// Next implements Generator.
func (g *Clickstream) Next() []tuple.Value {
	dwell := int64(g.rng.ExpFloat64() * 3000)
	return []tuple.Value{
		tuple.String_(fmt.Sprintf("user-%05d", g.users.Uint64())),
		tuple.String_(fmt.Sprintf("/page/%04d", g.urls.Uint64())),
		tuple.Int(dwell),
		tuple.Bool(g.rng.Intn(50) == 0),
	}
}

// Syslog simulates machine logs: hosts, weighted severities, and a
// status code. Severity 0 is emergency, 7 is debug; the weights skew
// heavily toward the chatty low-importance end, as real logs do.
type Syslog struct {
	rng    *rand.Rand
	schema *tuple.Schema
	hosts  int
}

// NewSyslog builds a log workload over the given host count.
func NewSyslog(hosts int, seed int64) *Syslog {
	if hosts <= 0 {
		panic("workload: host count must be positive")
	}
	return &Syslog{
		rng: rand.New(rand.NewSource(seed)),
		schema: tuple.MustSchema(
			tuple.Column{Name: "host", Kind: tuple.KindString},
			tuple.Column{Name: "severity", Kind: tuple.KindInt},
			tuple.Column{Name: "status", Kind: tuple.KindInt},
			tuple.Column{Name: "msg", Kind: tuple.KindString},
		),
		hosts: hosts,
	}
}

// Name implements Generator.
func (g *Syslog) Name() string { return "syslog" }

// Schema implements Generator.
func (g *Syslog) Schema() *tuple.Schema { return g.schema }

var syslogMessages = []string{
	"connection accepted", "connection closed", "request served",
	"cache miss", "cache hit", "retrying upstream", "disk latency high",
	"auth failure", "config reloaded", "healthcheck ok",
}

// Next implements Generator.
func (g *Syslog) Next() []tuple.Value {
	// Severity: mostly 6-7 (info/debug), rarely 0-3 (serious).
	r := g.rng.Float64()
	var sev int64
	switch {
	case r < 0.55:
		sev = 7
	case r < 0.85:
		sev = 6
	case r < 0.93:
		sev = 5
	case r < 0.97:
		sev = 4
	default:
		sev = int64(g.rng.Intn(4))
	}
	status := int64(200)
	if g.rng.Intn(20) == 0 {
		status = 500
	} else if g.rng.Intn(10) == 0 {
		status = 404
	}
	return []tuple.Value{
		tuple.String_(fmt.Sprintf("host-%02d", g.rng.Intn(g.hosts))),
		tuple.Int(sev),
		tuple.Int(status),
		tuple.String_(syslogMessages[g.rng.Intn(len(syslogMessages))]),
	}
}
