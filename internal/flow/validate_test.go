package flow

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestConfigSurface pins every value a caller can set through Config: the
// exported field paths, recursing into this module's option structs. A
// knob exists only where a caller sets it, so adding one has to change
// this list on purpose.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"TPPercent", "ExcludeNets", "Workers", "Deadline", "Telemetry",
		"Scan.MaxChainLength", "Scan.MaxChains",
		"Place.TargetUtilization", "Place.Telemetry",
		"SweepMode", "SkipATPG", "TimingOptRounds",
	}
	var got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch {
			case !f.IsExported():
			case f.Type.Kind() == reflect.Struct && strings.HasPrefix(f.Type.PkgPath(), "tpilayout/"):
				walk(prefix+f.Name+".", f.Type)
			default:
				got = append(got, prefix+f.Name)
			}
		}
	}
	walk("", reflect.TypeOf(Config{}))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Config has %d settable paths, want %d:\n got %q\nwant %q", len(got), len(want), got, want)
	}
}

func validConfig() Config {
	var cfg Config
	cfg.Place.TargetUtilization = 0.90
	return cfg
}

// TestConfigValidate table-tests every rejection Validate knows, plus the
// accepted boundary values.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want []string // substrings the error must contain; empty = valid
	}{
		{"valid defaults", func(c *Config) {}, nil},
		{"boundary TPPercent 0", func(c *Config) { c.TPPercent = 0 }, nil},
		{"boundary TPPercent 100", func(c *Config) { c.TPPercent = 100 }, nil},
		{"boundary utilization 1", func(c *Config) { c.Place.TargetUtilization = 1 }, nil},
		{"negative TPPercent", func(c *Config) { c.TPPercent = -0.5 },
			[]string{"TPPercent -0.5", "[0,100]"}},
		{"overfull TPPercent", func(c *Config) { c.TPPercent = 100.01 },
			[]string{"TPPercent 100.01"}},
		{"negative Workers", func(c *Config) { c.Workers = -3 },
			[]string{"Workers -3"}},
		{"zero utilization", func(c *Config) { c.Place.TargetUtilization = 0 },
			[]string{"place.TargetUtilization 0", "(0,1]"}},
		{"negative utilization", func(c *Config) { c.Place.TargetUtilization = -0.2 },
			[]string{"place.TargetUtilization -0.2"}},
		{"overfull utilization", func(c *Config) { c.Place.TargetUtilization = 1.1 },
			[]string{"place.TargetUtilization 1.1"}},
		{"negative TimingOptRounds", func(c *Config) { c.TimingOptRounds = -1 },
			[]string{"TimingOptRounds -1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

// TestConfigValidateReportsEveryViolation: a config broken in several ways
// yields one error naming all of them.
func TestConfigValidateReportsEveryViolation(t *testing.T) {
	cfg := Config{TPPercent: -1, Workers: -1, TimingOptRounds: -1}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate() = nil")
	}
	for _, w := range []string{"TPPercent", "Workers", "place.TargetUtilization", "TimingOptRounds"} {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("combined error %q omits %q", err, w)
		}
	}
}

// TestRunRejectsInvalidConfigUpFront: RunContext fails at the config
// stage — before touching the design — with a StageError.
func TestRunRejectsInvalidConfigUpFront(t *testing.T) {
	cfg := validConfig()
	cfg.Workers = -1
	// Passing a nil design proves validation happens before any use of it.
	_, err := RunContext(context.Background(), nil, cfg)
	if err == nil {
		t.Fatal("RunContext accepted an invalid config")
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageConfig {
		t.Fatalf("err = %v, want StageError at %q", err, StageConfig)
	}
}
