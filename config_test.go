package nfsrdma

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/chaos"
)

// TestConfigStatedOnce fails when a fault engine's Config declares a field
// that a config it embeds already has: chaos states its cluster as the
// core.Config it embeds, and an adversary run is the chaos.Config it embeds
// plus the attack, so a second name for the design, the shards or the seed
// would be a knob that silently disagrees with the first.
func TestConfigStatedOnce(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(chaos.Config{}), reflect.TypeOf(adversary.Config{})} {
		var embedded []reflect.Type
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Anonymous {
				embedded = append(embedded, f.Type)
			}
		}
		if len(embedded) == 0 {
			t.Errorf("%v embeds no config", typ)
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous {
				continue
			}
			for _, e := range embedded {
				if _, dup := e.FieldByName(f.Name); dup {
					t.Errorf("%v declares %s, which its embedded %v already has", typ, f.Name, e)
				}
			}
		}
	}
}
