package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"latencyhide/internal/assign"
	"latencyhide/internal/guest"
)

// Each int32 limit accepts its boundary value and rejects one past it with
// a typed error naming the field.
func TestEnvelopeBoundaries(t *testing.T) {
	ok := [4]int64{1, 2, 1, 1}
	for i, c := range []struct {
		field string
		limit int64
	}{
		{"Guest.Steps", math.MaxInt32 - 1},
		{"host positions", 1 << 30},
		{"neighbor slots on one workstation", math.MaxInt32},
		{"replicas", math.MaxInt32 / 2},
	} {
		at := ok
		at[i] = c.limit
		if err := envelope(at[0], at[1], at[2], at[3]); err != nil {
			t.Errorf("%s = %d rejected: %v", c.field, c.limit, err)
		}
		at[i] = c.limit + 1
		err := envelope(at[0], at[1], at[2], at[3])
		var env *EnvelopeError
		if !errors.As(err, &env) || env.Field != c.field || env.Value != c.limit+1 || env.Limit != c.limit {
			t.Errorf("%s = %d: got %v, want an EnvelopeError at limit %d", c.field, c.limit+1, err, c.limit)
		}
	}
	// The host limit is exactly the link-code range: the largest code,
	// pos*2+1 at pos = hostN-1, is MaxInt32.
	if code := int64(1<<30-1)*2 + 1; code != math.MaxInt32 {
		t.Fatalf("largest link code %d != MaxInt32", code)
	}
}

// The route table's sizes are checked the same way, right after the build:
// each limit accepts its boundary value and rejects one past it.
func TestRouteEnvelopeBoundaries(t *testing.T) {
	for i, c := range []struct {
		field string
		limit int64
	}{
		{"route chain arena entries", math.MaxInt32},
		{"columns", math.MaxInt32},
	} {
		at := [2]int64{2, 2}
		at[i] = c.limit
		if err := routeEnvelope(at[0], at[1]); err != nil {
			t.Errorf("%s = %d rejected: %v", c.field, c.limit, err)
		}
		at[i] = c.limit + 1
		err := routeEnvelope(at[0], at[1])
		var env *EnvelopeError
		if !errors.As(err, &env) || env.Field != c.field || env.Value != c.limit+1 || env.Limit != c.limit {
			t.Errorf("%s = %d: got %v, want an EnvelopeError at limit %d", c.field, c.limit+1, err, c.limit)
		}
	}
}

// Validate applies the envelope to a whole configuration.
func TestValidateRejectsStepsBeyondEnvelope(t *testing.T) {
	a, err := assign.FromOwned(2, 2, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Delays: []int{1}, Assign: a,
		Guest: guest.Spec{Graph: guest.NewLinearArray(2), Steps: math.MaxInt32 - 1}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("steps at the limit rejected: %v", err)
	}
	cfg.Guest.Steps = math.MaxInt32
	var env *EnvelopeError
	if err := cfg.Validate(); !errors.As(err, &env) || env.Field != "Guest.Steps" {
		t.Fatalf("steps past the limit: got %v, want an EnvelopeError", err)
	}
}

// Validate rejects a negative knob instead of falling back to its default,
// and names the knob.
func TestValidateRejectsNegativeKnobs(t *testing.T) {
	a, err := assign.FromOwned(2, 2, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Delays: []int{1}, Assign: a,
		Guest: guest.Spec{Graph: guest.NewLinearArray(2), Steps: 4}}
	for _, c := range []struct {
		knob string
		set  func(*Config)
	}{
		{"Bandwidth", func(c *Config) { c.Bandwidth = -5 }},
		{"ComputePerStep", func(c *Config) { c.ComputePerStep = -1 }},
		{"MaxSteps", func(c *Config) { c.MaxSteps = -1 }},
		{"Workers", func(c *Config) { c.Workers = -2 }},
	} {
		cfg := base
		if err := cfg.Validate(); err != nil {
			t.Fatalf("base config rejected: %v", err)
		}
		c.set(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.knob) {
			t.Errorf("negative %s: got %v, want an error naming it", c.knob, err)
		}
	}
}
