package daemon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/pkg/searchclient"
)

// FuzzDecodeBody feeds the query endpoints' body decoder arbitrary
// bytes, as a single request and as a batch. It must reject or accept —
// never panic — and what it accepts must be stable: encoded again and
// decoded again, the request is the same, so a request the daemon runs
// is the request a client would have got by sending the daemon's own
// reading of it.
func FuzzDecodeBody(f *testing.F) {
	f.Add([]byte(`{"key":7}`))
	f.Add([]byte(`{"key":7,"ttl":3,"policy":"random-2","origin":4,"timeout_ms":50,"max_hits":1}`))
	f.Add([]byte(`{"queries":[{"key":1,"max_hits":1},{"key":2,"origin":0}]}`))
	f.Add([]byte(`{"queries":[]}`))
	f.Add([]byte(`{"key":-1}`))
	f.Add([]byte(`{"key":18446744073709551616}`))
	f.Add([]byte(`{"origin":null,"key":"7"}`))
	f.Add([]byte(`[`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		roundTrip := func(v, again any) {
			r, _ := http.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			if decodeBody(r, v) != nil {
				return
			}
			enc, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("accepted %q but cannot encode it: %v", body, err)
			}
			r, _ = http.NewRequest(http.MethodPost, "/", bytes.NewReader(enc))
			if err := decodeBody(r, again); err != nil {
				t.Fatalf("accepted %q, rejected its own encoding %q: %v", body, enc, err)
			}
			if !reflect.DeepEqual(v, again) {
				t.Fatalf("%q decoded to %+v, its encoding %q to %+v", body, v, enc, again)
			}
		}
		roundTrip(new(searchclient.QueryRequest), new(searchclient.QueryRequest))
		roundTrip(new(searchclient.BatchQueryRequest), new(searchclient.BatchQueryRequest))
	})
}

// FuzzLoadConfig feeds LoadConfig's decoder arbitrary bytes. It must
// reject or accept — never panic — and a config that loads, defaults
// and validates must be stable: marshalled and loaded again it is the
// same config, defaulting it again changes nothing, and it still
// validates, so the file a daemon would write of its own settings boots
// the same daemon.
func FuzzLoadConfig(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parseConfig(data, Config{})
		if err != nil {
			return
		}
		c.ApplyDefaults()
		if c.Validate() != nil {
			return
		}
		enc, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted %q but cannot encode it: %v", data, err)
		}
		again, err := parseConfig(enc, Config{})
		if err != nil {
			t.Fatalf("accepted %q, rejected its own encoding %q: %v", data, enc, err)
		}
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("%q loaded to %+v, its encoding %q to %+v", data, c, enc, again)
		}
		again.ApplyDefaults()
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("defaulting %+v twice gave %+v", c, again)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("%q validated, its encoding %q did not: %v", data, enc, err)
		}
	})
}
