package service

//go:generate go run tictac/cmd/errcodegen -docs ../../docs/service.md -out errcodes_manifest.go

import (
	"errors"
	"fmt"
	"math"
	"net/http"
)

// Stable machine-readable error codes. Every error response the service
// emits — validation failures, method/path mismatches, size caps, internal
// faults — carries exactly one of these in {"error":{"code","message"}}.
// Codes are API surface: clients branch on them, the load generator's error
// probes (internal/loadgen) assert them, and they never change meaning.
const (
	// CodeBadRequest is the generic client error: malformed JSON, unknown
	// fields, out-of-range values, inconsistent envelopes.
	CodeBadRequest = "bad_request"
	// CodeUnknownModel rejects a model name outside the Table 1 catalog.
	CodeUnknownModel = "unknown_model"
	// CodeUnknownPolicy rejects a policy name the registry doesn't know.
	CodeUnknownPolicy = "unknown_policy"
	// CodeUnknownMode rejects a mode other than training/inference.
	CodeUnknownMode = "unknown_mode"
	// CodeUnknownEnv rejects a platform profile other than envG/envC.
	CodeUnknownEnv = "unknown_env"
	// CodeNotFound is returned for paths outside the API surface.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed is returned for a known path with the wrong verb.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodePayloadTooLarge is returned when the request body exceeds the
	// 1 MiB cap.
	CodePayloadTooLarge = "payload_too_large"
	// CodeBatchTooLarge is returned when a batch carries more variants than
	// the configured maximum (Options.MaxBatch, -max-batch).
	CodeBatchTooLarge = "batch_too_large"
	// CodeDepartedWorker rejects a workload whose membership events or
	// injection windows reference a worker that is not active where the
	// spec needs it: a leave/fail of an already-departed worker, or a
	// straggler window that never overlaps its worker's active iterations.
	CodeDepartedWorker = "departed_worker"
	// CodeFleetUnavailable is returned in fleet mode when a request's home
	// node and its replica are both unreachable and this node is not in
	// the key's replica chain; the fleet cannot currently serve the key's
	// canonical cached bytes, and the client should retry (the health
	// layer removes dead peers within a few probe intervals, after which
	// the surviving nodes serve the key themselves).
	CodeFleetUnavailable = "fleet_unavailable"
	// CodeInternal is the server-fault catch-all.
	CodeInternal = "internal"
)

// ErrorBody is the structured error payload: a stable code plus a human-
// readable message. Batch responses reuse it per variant.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the uniform body of every non-2xx response.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// apiError is a client-visible failure with an HTTP status and stable code.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// codeErr builds an apiError with an explicit status and code.
func codeErr(status int, code, format string, args ...any) error {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// badRequest is the generic 400 with CodeBadRequest.
func badRequest(format string, args ...any) error {
	return codeErr(http.StatusBadRequest, CodeBadRequest, format, args...)
}

// errorBody maps any error to its wire form; non-apiErrors are internal.
func errorBody(err error) (int, ErrorBody) {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status, ErrorBody{Code: ae.code, Message: ae.msg}
	}
	return http.StatusInternalServerError, ErrorBody{Code: CodeInternal, Message: err.Error()}
}

// writeError renders err as the structured JSON envelope.
func writeError(w http.ResponseWriter, err error) {
	status, body := errorBody(err)
	writeJSON(w, status, ErrorResponse{Error: body})
}

// checkFinite rejects a result whose numbers overflowed. Finite but extreme
// inputs (a straggler factor near the float64 maximum, a subnormal channel
// bandwidth) can push simulated times to ±Inf or NaN, which JSON cannot
// carry; the request asked for them, so it is a 400 bad_request.
func checkFinite(vs ...float64) error {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return badRequest("inputs overflow the simulation: a reported time or rate is %v", v)
		}
	}
	return nil
}
