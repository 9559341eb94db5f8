package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"ebsn/internal/ebsnet"
	"ebsn/internal/geo"
	"ebsn/internal/ta"
)

// Constraint restricts recommendations to events inside a time window
// and/or a geographic radius — the auxiliary attributes (start time,
// venue location) the GEM model already embeds, exposed as hard filters.
// Zero-valued fields impose nothing: the zero Constraint allows every
// event.
type Constraint struct {
	// From, when non-zero, requires the event to start at or after it.
	From time.Time
	// Until, when non-zero, requires the event to start strictly before
	// it (a half-open [From, Until) window, so adjacent windows tile).
	Until time.Time
	// Center and RadiusKm, when RadiusKm > 0, require the event's venue
	// to lie within RadiusKm of Center (equirectangular distance — the
	// city-scale approximation the rest of the repo uses).
	Center   geo.Point
	RadiusKm float64
}

// IsZero reports whether the constraint allows every event, in which
// case Compile returns a nil predicate and queries take the exact
// unconstrained path.
func (c Constraint) IsZero() bool {
	return c.From.IsZero() && c.Until.IsZero() && c.RadiusKm <= 0
}

// Allow reports whether one event — by start time and venue location —
// satisfies the constraint.
func (c Constraint) Allow(start time.Time, venue geo.Point) bool {
	if !c.From.IsZero() && start.Before(c.From) {
		return false
	}
	if !c.Until.IsZero() && !start.Before(c.Until) {
		return false
	}
	if c.RadiusKm > 0 && geo.EquirectKm(c.Center, venue) > c.RadiusKm {
		return false
	}
	return true
}

// Compile evaluates the constraint over the given event IDs (typically
// the split's test events, in candidate-set order) and returns the
// ta.EventPredicate the threshold walk consumes, plus the allowed-event
// count. A zero constraint compiles to a nil predicate — the signal for
// every layer below to take its exact unconstrained path.
func Compile(c Constraint, d *ebsnet.Dataset, eventIDs []int32) (ta.EventPredicate, int) {
	if c.IsZero() {
		return nil, len(eventIDs)
	}
	pred := make(ta.EventPredicate, len(eventIDs))
	allowed := 0
	for i, x := range eventIDs {
		e := d.Events[x]
		if c.Allow(e.Start, d.Venues[e.Venue]) {
			pred[i] = true
			allowed++
		}
	}
	return pred, allowed
}

// ParseConstraint builds a Constraint from the serving layer's wire
// parameters: from and until are RFC 3339 timestamps, within is
// "lat,lng,radiusKm". Empty strings impose nothing; a from at or after
// until is rejected (the window would be empty by construction), and so
// is a within whose latitude is outside [-90, 90], longitude outside
// [-180, 180] or radius not positive and finite.
func ParseConstraint(from, until, within string) (Constraint, error) {
	var c Constraint
	var err error
	if from != "" {
		if c.From, err = time.Parse(time.RFC3339, from); err != nil {
			return Constraint{}, fmt.Errorf("workload: bad from %q: %w", from, err)
		}
	}
	if until != "" {
		if c.Until, err = time.Parse(time.RFC3339, until); err != nil {
			return Constraint{}, fmt.Errorf("workload: bad until %q: %w", until, err)
		}
	}
	if !c.From.IsZero() && !c.Until.IsZero() && !c.From.Before(c.Until) {
		return Constraint{}, fmt.Errorf("workload: empty window: from %v is not before until %v", c.From, c.Until)
	}
	if within != "" {
		parts := strings.Split(within, ",")
		if len(parts) != 3 {
			return Constraint{}, fmt.Errorf("workload: bad within %q: want \"lat,lng,radiusKm\"", within)
		}
		lat, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return Constraint{}, fmt.Errorf("workload: bad within latitude %q: %w", parts[0], err)
		}
		lng, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return Constraint{}, fmt.Errorf("workload: bad within longitude %q: %w", parts[1], err)
		}
		radius, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return Constraint{}, fmt.Errorf("workload: bad within radius %q: %w", parts[2], err)
		}
		// Negated so that NaN, which would otherwise make a non-zero
		// constraint allowing every event, fails too.
		if !(lat >= -90 && lat <= 90 && lng >= -180 && lng <= 180) {
			return Constraint{}, fmt.Errorf("workload: within center %v,%v is off the globe: want lat in [-90, 90], lng in [-180, 180]", lat, lng)
		}
		if !(radius > 0 && radius <= math.MaxFloat64) {
			return Constraint{}, fmt.Errorf("workload: within radius must be positive and finite, got %v", radius)
		}
		c.Center = geo.Point{Lat: lat, Lng: lng}
		c.RadiusKm = radius
	}
	return c, nil
}

// Key renders the constraint as a short canonical string — the
// serving layer's cache-key component, so distinct constraints never
// share a cache entry. The zero constraint renders as the empty string.
func (c Constraint) Key() string {
	if c.IsZero() {
		return ""
	}
	var b strings.Builder
	if !c.From.IsZero() {
		b.WriteString("f")
		b.WriteString(strconv.FormatInt(c.From.UnixNano(), 36))
	}
	if !c.Until.IsZero() {
		b.WriteString("u")
		b.WriteString(strconv.FormatInt(c.Until.UnixNano(), 36))
	}
	if c.RadiusKm > 0 {
		b.WriteString("g")
		b.WriteString(strconv.FormatFloat(c.Center.Lat, 'g', -1, 64))
		b.WriteString(",")
		b.WriteString(strconv.FormatFloat(c.Center.Lng, 'g', -1, 64))
		b.WriteString(",")
		b.WriteString(strconv.FormatFloat(c.RadiusKm, 'g', -1, 64))
	}
	return b.String()
}
