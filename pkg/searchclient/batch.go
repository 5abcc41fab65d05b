package searchclient

import (
	"context"
	"fmt"
)

// BatchQueryRequest is the body of POST /v1/query/batch: a slab of
// queries admitted through the lifecycle gate as one unit and drained
// on the daemon's resident batch workers. Admission is batch-atomic —
// either the whole slab is admitted (one gate check, one inflight
// entry) or the whole slab is refused with 503; per-item problems
// (bad key, out-of-range field, unhosted origin) never fail the slab, they
// mark that item's result instead.
type BatchQueryRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// BatchItem is one query's outcome inside a batch response. Exactly
// one of the two shapes is populated: a successful item embeds the
// same QueryResponse a single POST /v1/query would have produced;
// a failed item carries the HTTP status code and error message that
// the single-query endpoint would have answered with.
type BatchItem struct {
	QueryResponse
	// Status is the per-item HTTP-equivalent status code when the item
	// failed (400 for a bad key, field or origin, 503 when every local
	// node was crashed); 0 on success.
	Status int `json:"status,omitempty"`
	// Error is the per-item failure message; empty on success.
	Error string `json:"error,omitempty"`
}

// OK reports whether the item succeeded.
func (it *BatchItem) OK() bool { return it.Status == 0 }

// BatchQueryResponse is the body answering POST /v1/query/batch.
// Results align 1:1 with the request's Queries, in order.
type BatchQueryResponse struct {
	Results       []BatchItem `json:"results"`
	ElapsedMillis float64     `json:"elapsed_ms"`
}

// QueryBatch runs a slab of queries as one POST /v1/query/batch. The
// response's Results align 1:1 with reqs. The whole slab shares the
// client's retry/breaker machinery exactly like a single Query.
func (c *Client) QueryBatch(ctx context.Context, reqs []QueryRequest) (*BatchQueryResponse, error) {
	var resp BatchQueryResponse
	err := c.post(ctx, "/v1/query/batch", BatchQueryRequest{Queries: reqs}, &resp)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(reqs) {
		return nil, fmt.Errorf("searchclient: batch answered %d results for %d queries",
			len(resp.Results), len(reqs))
	}
	return &resp, nil
}

// BatchStatusError summarizes the per-item failures of a batch, for
// callers that treat any item failure as fatal.
func (r *BatchQueryResponse) BatchStatusError() error {
	for i := range r.Results {
		if !r.Results[i].OK() {
			return &Error{Status: r.Results[i].Status,
				Message: fmt.Sprintf("batch item %d: %s", i, r.Results[i].Error)}
		}
	}
	return nil
}
