package registry

import "io"

// Stop closes what s holds open over its directory: what the end of a
// registry process does, its directory lock among it.
func Stop(s *Server) error {
	if c, ok := s.refs.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
