package vmm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"faasnap/internal/core"
	"faasnap/internal/workload"
)

// catalogLoadBodies returns the snapshot-load bodies a daemon sends for
// each catalog function recorded on its A input: without region maps
// (Firecracker, REAP and cached restores) and with them (FaaSnap and
// per-region restores), built from the mapping plan as the daemon
// builds them.
func catalogLoadBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	bodies := map[string][]byte{}
	for _, spec := range workload.Catalog() {
		arts, _ := core.Record(core.DefaultHostConfig(), spec, spec.A)
		snap := "/snapshots/" + spec.Name
		req := SnapshotLoadRequest{
			SnapshotPath: snap + ".state",
			MemBackend:   MemBackend{BackendType: "File", BackendPath: snap + ".mem"},
			ResumeVM:     true,
		}
		for _, mapped := range []bool{false, true} {
			for _, m := range arts.MappingPlan(true) {
				if !mapped {
					break
				}
				rm := RegionMap{StartPage: m.Start, Pages: m.Pages, Backing: "anonymous"}
				switch m.Backing {
				case core.MapMemoryFile:
					rm.Backing, rm.Path, rm.Offset = "memory_file", snap+".mem", m.FileOff
				case core.MapLoadingSet:
					rm.Backing, rm.Path, rm.Offset = "loading_set", snap+".ls", m.FileOff
				}
				req.RegionMaps = append(req.RegionMaps, rm)
			}
			raw, err := json.Marshal(req)
			if err != nil {
				tb.Fatal(err)
			}
			bodies[fmt.Sprintf("%s mapped=%v", spec.Name, mapped)] = raw
		}
	}
	return bodies
}

// loadCases are odd bodies the flat pass must hand to encoding/json, or
// take with encoding/json's answer: escapes, non-ASCII, keys out of
// order or repeated, floats, integers at and past int64's edge, and
// members json.Marshal would omit.
var loadCases = []string{
	`{"snapshot_path":"/s/a\"b","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true}`,
	`{"snapshot_path":"/s/é","mem_backend":{"backend_type":"File","backend_path":"/m<"},"resume_vm":true}`,
	`{"snapshot_path":"/s/é","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true}`,
	`{"snapshot_path":"/s/<&>","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":false}`,
	`{"mem_backend":{"backend_path":"/m","backend_type":"File"},"snapshot_path":"/s","resume_vm":true}`,
	`{"snapshot_path":"/a","snapshot_path":"/b","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true}`,
	`{"snapshot_path":"/s","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true,` +
		`"region_maps":[{"start_page":1.5,"pages":1e3,"backing":"anonymous"}]}`,
	`{"snapshot_path":"/s","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true,` +
		`"region_maps":[{"start_page":9223372036854775807,"pages":-9223372036854775808,"backing":"anonymous"}]}`,
	`{"snapshot_path":"/s","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true,` +
		`"region_maps":[{"start_page":9223372036854775808,"pages":1,"backing":"anonymous"}]}`,
	`{"snapshot_path":"/s","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true,` +
		`"region_maps":[{"start_page":999999999999999999,"pages":-0,"backing":"anonymous"},{"start_page":01,"pages":1,"backing":"x"}]}`,
	`{"snapshot_path":"/s","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true,` +
		`"region_maps":[{"start_page":0,"pages":1,"backing":"memory_file","path":"","offset":0}]}`,
	`{"snapshot_path":"/s","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true,"region_maps":[]}`,
	`{"snapshot_path":"/s","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true,"region_maps":null}`,
	`{"snapshot_path":"/s","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true,"region_maps":[}]}`,
	` {"snapshot_path":"/s","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true} `,
	`{"snapshot_path":"/s","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true,` +
		`"region_maps":[{"start_page":0,"pages":1,"backing":"anonymous"}`,
	`{"snapshot_path":"/s","mem_backend":{"backend_type":"File","backend_path":"/m"},"resume_vm":true}x`,
	`{}`, `null`, ``,
}

// FuzzDecodeLoad checks decodeLoad against encoding/json: for every
// body, both accept or both reject it with the same error, and both
// decode the same request. The catalog's bodies must take the flat
// pass, or the restore hop is back on encoding/json unnoticed.
func FuzzDecodeLoad(f *testing.F) {
	for name, body := range catalogLoadBodies(f) {
		if !decodeFlatLoad(body, new(SnapshotLoadRequest)) {
			f.Fatalf("the flat pass declines %s's body", name)
		}
		f.Add(body)
	}
	for _, body := range loadCases {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want SnapshotLoadRequest
		err := decodeLoad(httptest.NewRequest(http.MethodPut, "/snapshot/load", bytes.NewReader(body)), &got)
		wantErr := json.Unmarshal(body, &want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q\ndecodeLoad     %+v, %v\njson.Unmarshal %+v, %v", body, got, err, want, wantErr)
		}
	})
}
