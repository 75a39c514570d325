# Build hook for the end-to-end checkpoint benchmark. It is not part of
# the default tree: run.py configures a dedicated build directory with
#
#   cmake -S . -B .bench_build/e2e -DCMAKE_PROJECT_INCLUDE=bench/e2e/e2e.cmake
#
# CMake evaluates this file right after the top-level project() call,
# before the library targets exist, so the link names below resolve at
# generate time and the C++ standard is requested per target.
add_executable(e2e_checkpoint ${CMAKE_CURRENT_LIST_DIR}/e2e_checkpoint.cpp)
target_compile_features(e2e_checkpoint PRIVATE cxx_std_20)
target_compile_definitions(e2e_checkpoint PRIVATE WCK_E2E_BUILD_TYPE="$<CONFIG>")
target_link_libraries(e2e_checkpoint PRIVATE wck_server wck_ckpt wck_core Threads::Threads)
