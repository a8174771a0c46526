package service

import (
	"bytes"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"strings"
	"testing"
	"time"
)

// Inputs whose schema the solver cannot build are request errors: a 4xx,
// never a panic that drops the connection, strands a flight or kills the
// process.

// k1CollisionInstance gives R2 a non-key column named like R1's key.
func k1CollisionInstance() InstanceJSON {
	inst := testInstance(0)
	r2 := *inst.R2
	r2.Columns = append(append([]ColumnJSON(nil), r2.Columns...), ColumnJSON{Name: "pid", Type: "int"})
	r2.Rows = [][]any{{1, "Chicago", 7}, {2, "Chicago", 8}, {3, "NYC", 9}, {4, "NYC", 10}}
	inst.R2 = &r2
	return inst
}

func TestDuplicateJSONColumnIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inst := testInstance(0)
	r1 := *inst.R1
	r1.Columns = append(append([]ColumnJSON(nil), r1.Columns...), ColumnJSON{Name: "Age", Type: "int"})
	for i, row := range r1.Rows {
		r1.Rows[i] = append(append([]any(nil), row...), 1)
	}
	inst.R1 = &r1
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/solve", SolveRequest{InstanceJSON: inst}},
		{"/v1/batch", BatchRequest{Instances: []InstanceJSON{inst}}},
	} {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.path, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `duplicate column \"Age\"`) {
			t.Errorf("%s: error does not name the duplicate column: %s", tc.path, body)
		}
	}
}

func TestDuplicateCSVHeaderIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	r1, _ := mw.CreateFormFile("r1", "persons.csv")
	io.WriteString(r1, "pid,Age,Rel,Age,hid\n1,70,Owner,70,\n")
	r2, _ := mw.CreateFormFile("r2", "housing.csv")
	io.WriteString(r2, "hid,Area\n1,Chicago\n")
	mw.WriteField("k1", "pid")
	mw.WriteField("k2", "hid")
	mw.WriteField("fk", "hid")
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/solve", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `duplicate column \"Age\"`) {
		t.Errorf("error does not name the duplicate column: %s", body)
	}
}

// TestK1CollisionIs422 sends the instance twice: the first request's
// flight must settle, or the second would wait on it forever.
func TestK1CollisionIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	b, err := json.Marshal(SolveRequest{InstanceJSON: k1CollisionInstance()})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 3 * time.Second}
	for attempt := 0; attempt < 2; attempt++ {
		resp, err := client.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Errorf("attempt %d: %v", attempt, err)
			continue
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("attempt %d: status %d, want 422: %s", attempt, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `column \"pid\" appears in both relations`) {
			t.Errorf("attempt %d: error does not name the column: %s", attempt, body)
		}
	}
}

func TestK1CollisionFailsBatchInstance(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Instances: []InstanceJSON{k1CollisionInstance(), testInstance(5)},
	})
	var js jobStatusJSON
	if err := json.Unmarshal(readBody(t, resp), &js); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, decode %v", resp.StatusCode, err)
	}
	for i := 0; i < 400 && js.Status != jobDone; i++ {
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + js.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(readBody(t, resp), &js); err != nil {
			t.Fatal(err)
		}
	}
	if js.Status != jobDone || len(js.Results) != 2 {
		t.Fatalf("job = %q with %d results, want done with 2", js.Status, len(js.Results))
	}
	var failed struct{ Error string }
	if err := json.Unmarshal(js.Results[0], &failed); err != nil || !strings.Contains(failed.Error, `column "pid" appears in both relations`) {
		t.Errorf("instance 0 result = %s, want the collision error", js.Results[0])
	}
	var ok SolveResponse
	if err := json.Unmarshal(js.Results[1], &ok); err != nil || ok.Key == "" {
		t.Errorf("instance 1 result = %s, want a solve response", js.Results[1])
	}
	// The server is still up.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the batch: %v", err)
	} else {
		readBody(t, resp)
	}
}
