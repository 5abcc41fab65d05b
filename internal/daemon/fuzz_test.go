package daemon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/pkg/searchclient"
)

// FuzzDecodeBody feeds the query endpoints' body decoder arbitrary
// bytes, as a single request and as a batch. It must reject or accept —
// never panic — and what it accepts must name no field the request
// type does not declare, and be stable: encoded again and decoded
// again, the request is the same, so a request the daemon runs is the
// request a client would have got by sending the daemon's own reading
// of it.
func FuzzDecodeBody(f *testing.F) {
	f.Add([]byte(`{"key":7}`))
	f.Add([]byte(`{"key":7,"ttl":3,"policy":"random-2","origin":4,"timeout_ms":50,"max_hits":1}`))
	f.Add([]byte(`{"queries":[{"key":1,"max_hits":1},{"key":2,"origin":0}]}`))
	f.Add([]byte(`{"queries":[]}`))
	f.Add([]byte(`{"key":-1}`))
	f.Add([]byte(`{"key":18446744073709551616}`))
	f.Add([]byte(`{"origin":null,"key":"7"}`))
	f.Add([]byte(`{"key":17,"deadline_ms":5,"timeuot_ms":1}`))
	f.Add([]byte(`{"queries":[{"key":1,"ttll":2}]}`))
	f.Add([]byte(`{"KEY":7,"Max_Hits":1}`))
	f.Add([]byte(`{"key":7} {"key":8}`))
	f.Add([]byte(`[`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		roundTrip := func(v, again any) {
			r, _ := http.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			if decodeBody(r, v) != nil {
				return
			}
			var raw any
			if err := json.Unmarshal(body, &raw); err != nil {
				t.Fatalf("accepted %q, which is not JSON: %v", body, err)
			}
			if name, ok := unknownField(raw, reflect.TypeOf(v)); ok {
				t.Fatalf("accepted %q with the undeclared field %q", body, name)
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

// unknownField returns an object key in raw, a generic decode of a
// body, that names no field of typ — matched as encoding/json matches
// names, case-insensitively — searching nested objects and arrays.
func unknownField(raw any, typ reflect.Type) (string, bool) {
	for typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	switch v := raw.(type) {
	case map[string]any:
		for key, val := range v {
			field, ok := fieldNamed(typ, key)
			if !ok {
				return key, true
			}
			if name, ok := unknownField(val, field.Type); ok {
				return name, true
			}
		}
	case []any:
		for _, val := range v {
			if name, ok := unknownField(val, typ.Elem()); ok {
				return name, true
			}
		}
	}
	return "", false
}

// fieldNamed finds the field of struct type typ that the JSON key
// decodes into.
func fieldNamed(typ reflect.Type, key string) (reflect.StructField, bool) {
	if typ.Kind() != reflect.Struct {
		return reflect.StructField{}, false
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		if f.IsExported() && name != "-" && strings.EqualFold(name, key) {
			return f, true
		}
	}
	return reflect.StructField{}, false
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
		var c Config
		if decodeStrict(bytes.NewBuffer(data), &c) != nil {
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
		var again Config
		if err := decodeStrict(bytes.NewBuffer(enc), &again); err != nil {
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
